"""Cold-start cost of one scenario, timed inside a fresh interpreter.

    python3 benchmarks/setup_probe.py CONFIG.json

Imports vndarboux, validates the config, builds its seed and Lax solution and
dresses one sample (the first call of each kernel).  Prints one JSON line:
``import_s`` (the import alone) and ``setup_s`` (all of it).
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import vndarboux  # noqa: E402

imported = time.perf_counter()
from vndarboux import scenario_cli  # noqa: E402

with open(sys.argv[1]) as handle:
    cfg, errors = scenario_cli.validate_config(json.load(handle))
if errors:
    sys.exit("; ".join(errors))
seed = scenario_cli.build_seed(cfg)
darboux = cfg["darboux"]
lam = complex(*darboux["lambda"]) if "lambda" in darboux else None
lax = vndarboux.build_lax(seed, complex(*darboux["mu"]), lam=lam)
vndarboux.dressed_state_at(seed, lax, cfg["times"]["t_min"])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
