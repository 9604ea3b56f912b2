"""``output_files.atomic_write``: each case on the exchange of the two names
(renameat2's ``RENAME_EXCHANGE``, onto a regular file) and on the
``os.replace`` fallback, which the writer takes when glibc has no
``renameat2``."""

import os
import shutil
import threading
from types import SimpleNamespace

import pytest

from vndarboux import output_files


@pytest.fixture(params=["exchange", "fallback"])
def writer(request, monkeypatch, tmp_path):
    """Which way the writer installs a file over a regular one (``on``: by
    the exchange), and the return values of the renameat2 calls it makes,
    in order (``results``); the fallback has no renameat2 and makes none."""
    results = []
    if request.param == "fallback":
        monkeypatch.setattr(output_files, "libc_function", lambda name, *argtypes: None)
        return SimpleNamespace(on=False, results=results)
    lookup = output_files.libc_function

    def recorded_lookup(name, *argtypes):
        function = lookup(name, *argtypes)
        if function is None:
            return None

        def recorded(*args):
            results.append(function(*args))
            return results[-1]
        return recorded

    monkeypatch.setattr(output_files, "libc_function", recorded_lookup)
    probe = tmp_path / "probe"
    probe.mkdir()
    for text in ("old", "new"):
        output_files.atomic_write(str(probe / "file"), [text])
    if results != [0]:
        pytest.skip("no renameat2, or a filesystem that does not exchange names")
    shutil.rmtree(probe)
    results.clear()
    return SimpleNamespace(on=True, results=results)


def _exchanges(writer, count):
    # the renameat2 calls a writer made for count rewrites of a regular file
    return [0] * count if writer.on else []


def _temporaries(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".tmp-"))


def test_a_missing_target_is_created(tmp_path, writer):
    path = tmp_path / "out.txt"
    output_files.atomic_write(str(path), ["new ", "text\n"])
    assert path.read_text() == "new text\n"
    assert writer.results == [] and _temporaries(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_regular_file_is_replaced(tmp_path, writer, umask):
    path = tmp_path / "out.txt"
    path.write_text("old text, longer than the new\n")
    os.chmod(path, 0o600)
    old = os.umask(umask)
    try:
        output_files.atomic_write(str(path), ["new\n"])
    finally:
        os.umask(old)
    assert path.read_text() == "new\n"
    # the new file's mode, not the old one's
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert _temporaries(tmp_path) == []
    assert writer.results == _exchanges(writer, 1)


def test_a_symlink_is_replaced_and_its_target_kept(tmp_path, writer):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("kept\n")
    link.symlink_to(target)
    output_files.atomic_write(str(link), ["new\n"])
    assert not link.is_symlink() and link.read_text() == "new\n"
    assert target.read_text() == "kept\n"
    assert writer.results == [] and _temporaries(tmp_path) == []


def test_a_directory_target_raises_and_is_untouched(tmp_path, writer):
    path = tmp_path / "out"
    path.mkdir()
    (path / "inside.txt").write_text("kept\n")
    # what os.replace raises for a file renamed onto a directory
    with pytest.raises(IsADirectoryError):
        output_files.atomic_write(str(path), ["new\n"])
    assert [p.name for p in path.iterdir()] == ["inside.txt"]
    assert (path / "inside.txt").read_text() == "kept\n"
    assert writer.results == [] and _temporaries(tmp_path) == []


def test_a_failed_write_keeps_the_old_file(tmp_path, writer):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def chunks():
        yield "half of the "
        raise RuntimeError("stopped mid-write")

    with pytest.raises(RuntimeError, match="stopped mid-write"):
        output_files.atomic_write(str(path), chunks())
    assert path.read_text() == "old\n"
    assert writer.results == [] and _temporaries(tmp_path) == []


def test_a_failed_exchange_falls_back_to_os_replace(tmp_path, monkeypatch):
    # EINVAL on a filesystem without the flag, ENOSYS on an old kernel
    made = []
    monkeypatch.setattr(output_files, "libc_function",
                        lambda name, *argtypes: lambda *args: made.append(args) or -1)
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    output_files.atomic_write(str(path), ["new\n"])
    assert len(made) == 1 and path.read_text() == "new\n"
    assert _temporaries(tmp_path) == []


def test_a_reader_sees_a_whole_file_across_rewrites(tmp_path, writer):
    # each version is one line repeated, of its own length: a read that
    # got a part of a file, or none, shows
    path = tmp_path / "out.txt"
    path.write_text("start\n" * 4000)
    done = threading.Event()
    seen, faults = [], []

    def read():
        while not done.is_set():
            try:
                text = path.read_text()
            except FileNotFoundError as exc:
                faults.append(exc)
                continue
            line = text.partition("\n")[0] + "\n"
            if text != line * 4000:
                faults.append(len(text))
            seen.append(line)

    reader = threading.Thread(target=read)
    reader.start()
    try:
        for k in range(200):
            output_files.atomic_write(str(path), [f"{k}\n" * 4000])
    finally:
        done.set()
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert faults == [] and len(seen) > 0
    assert path.read_text() == "199\n" * 4000
    assert _temporaries(tmp_path) == []
    assert writer.results == _exchanges(writer, 200)
