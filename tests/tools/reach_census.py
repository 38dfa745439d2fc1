"""Reach census: which ``src/repro`` code does an entry point outside ``tests/`` run?

Runs ``ENTRY_POINTS`` under a line recorder installed from a ``sitecustomize.py``
(so pool workers, ``stage-host`` children and pytest-benchmark's timed calls count),
then reports from ``co_lines()`` the executable / unexecuted totals and every
function of >= 5 lines no entry point entered; exits 1 when one is missing from
``tests/test_module_census.py::KEPT_UNREACHED``.  ~8 min, from the repository
root: ``python tests/tools/reach_census.py [DIR]`` (the dumps land in DIR).
"""

from __future__ import annotations

import json, os, subprocess, sys, tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
#: The recorder.  ``settrace(None)`` is ignored (pytest-benchmark switches tracers
#: off around the timed call); hits are dumped per pid at exit and before
#: ``os._exit`` (how forked pool workers leave).
SITE = '''
import atexit, os, sys, threading
_root, _out, _hits = os.environ["REACH_SRC"], os.environ["REACH_OUT"], set()
def _line(frame, event, arg):
    _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line
def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_root) else None
def _dump():
    with open(os.path.join(_out, "hits-%d.txt" % os.getpid()), "w") as out:
        out.writelines("%s:%d\\n" % hit for hit in sorted(_hits))
_settrace, _exit = sys.settrace, os._exit
sys.settrace = lambda fn: _settrace(fn or _call)
os._exit = lambda code: (_dump(), _exit(code))
atexit.register(_dump)
threading.settrace(_call)
_settrace(_call)
'''
PY = sys.executable
CLI = f"{PY} -m repro.cli"
#: What both ``serve`` documents set alike.
WORLD = {"interval": 0.25, "seed": 7, "sample_rate": 0.1, "workload": {"rate": 120}}
#: ``serve`` config documents (``{t}/<name>.json``): the shipped example policy
#: in process; stage hosts with two channels, decay orphan policy, faults, sinks.
DOCS = {"example": {**WORLD, "port": 9178, "padll": json.loads((REPO / "examples/padll.json").read_text())},
        "procs": {**WORLD, "port": 9179, "stage_procs": 2, "audit_dir": "{t}/audit",
                  "workload": {"rate": 120, "path_prefix": "/lustre/scratch"},
                  "faults": {"loss": 0.05, "latency": 0.002, "jitter": 0.002},
                  "orphan": {"mode": "decay", "orphan_after": 3, "floor": 2.0, "half_life": 5.0},
                  "padll": {"pfs_mounts": ["/lustre"], "channels": [
                      {"id": "metadata", "classes": ["metadata", "dir_mgmt"]},
                      {"id": "opens", "ops": ["open"], "priority": 10, "initial_rate": 40.0}]}}}
READS = ("metrics", "healthz", "api/v1/snapshot?tail=5", "api/v1/spans?limit=5&job=job0", "api/v1/audit?limit=5",
         "api/v1/events?kind=control.cycle&limit=2", "api/v1/events?job=job0&limit=2", "api/v1/admin")
ADMIN = {"policy.set": {"name": "cap", "job": "job1", "rate": 50.0},
         "policy.enable": {"name": "cap", "enabled": False}, "policy.remove": {"name": "cap"},
         "job.rate": {"job": "job0", "rate": 55.0}, "job.reservation": {"job": "job0", "rate": 20.0},
         "job.drain": {"job": "job1"}, "stage.evict": {"stage": "job1/s1"}, "job.evict": {"job": "job1"},
         "telemetry.sampling": {"rate": 0.5}, "service.shutdown": {"reason": "census"}}


def serve(name: str, env: str = "") -> str:
    """``serve`` on ``DOCS[name]`` in the background, every read endpoint, a
    SIGKILLed stage host (if any), every admin verb; the command's status is the
    service's own."""
    base = f"http://127.0.0.1:{DOCS[name]['port']}"
    reads = "".join(f" && curl -fsS '{base}/{path}'" for path in READS)
    posts = "".join(
        f" && curl -fsS -H 'Authorization: Bearer s3cret' -d '{json.dumps(body)}' "
        f"{base}/api/v1/admin/{verb} && sleep 0.5" for verb, body in ADMIN.items())
    return (f"{env}{CLI} serve --config {{t}}/{name}.json "
            f"--duration 90 & until curl -fs {base}/readyz; do sleep 0.2; done; sleep 5; "
            f"pkill -9 -f 'host-id host[0]'; sleep 5{reads}{posts} && wait $!")


#: Every entry point that is not ``tests/``; ``{t}`` is the scratch directory.
ENTRY_POINTS = [
    *(f"{CLI} {arguments}" for arguments in (
        "trace generate --kind aggregate --out {t}/agg.csv", "trace generate --kind mdt --out {t}/mdt.jsonl",
        "trace stats {t}/agg.csv", "trace stats {t}/mdt.jsonl", "trace run --out {t}/traced",
        "experiment fig1", "experiment fig2",
        "experiment fig4 --export {t}/csv", "experiment fig4-sharded", "experiment fig5 --export {t}/csv",
        "experiment overhead", "experiment harm", "experiment cost-aware", "experiment dependability",
        "ablation lag", "ablation burst", "ablation loop", "sweep all --quick --jobs 2 --cache-dir {t}/cache",
        "sweep sharded --quick --no-cache", "sweep harm --quick --cache-dir {t}/cache",
        "lint --format text --verbose", "lint --format json", "lint --format sarif",
        "policy check examples/padll.json")),
    *(f"{CLI} sharded --jobs 8 --stages-per-job 4 --racks 8 --clients-per-stage 20 "
      f"--duration 60 --step-period 15 --shards {shards}" for shards in (1, 2)),
    f"{PY} -m repro.experiments.failover",
    serve("example", env="PADLL_ADMIN_TOKEN=s3cret "),
    serve("procs"),
    f"{PY} bench/run.py --smoke --out {{t}}/bench",
    *(f"{PY} {path}" for path in sorted(REPO.glob("examples/*.py"))),
    f"{PY} -m pytest -q -p no:cacheprovider benchmarks",
]


def functions(code, module):
    """``(module:qualname, def line, executable lines)`` of a code object and all nested in it."""
    yield f"{module}:{code.co_qualname}", code.co_firstlineno, {n for _, _, n in code.co_lines() if n}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from functions(const, module)


def main() -> int:
    sys.path.insert(0, str(REPO))
    from tests.test_module_census import KEPT_UNREACHED, MODULES

    scratch = Path(sys.argv[1] if sys.argv[1:] else tempfile.mkdtemp(prefix="reach-")).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    (scratch / "sitecustomize.py").write_text(SITE)
    for name, doc in DOCS.items():
        (scratch / f"{name}.json").write_text(json.dumps(doc).replace("{t}", str(scratch)))
    env = dict(os.environ, PYTHONPATH=f"{scratch}{os.pathsep}{SRC}", REACH_SRC=str(SRC), REACH_OUT=str(scratch))
    for command in ENTRY_POINTS:
        command = command.replace("{t}", str(scratch))
        print("+", command, flush=True)
        status = subprocess.run(command, shell=True, cwd=REPO, env=env, stdout=subprocess.DEVNULL).returncode
        if status != 0:
            raise SystemExit(f"entry point failed ({status}): {command}")
    dumped = (line.rpartition(":") for dump in scratch.glob("hits-*.txt") for line in dump.read_text().split())
    hits = {(name, int(number)) for name, _, number in dumped}
    executable = unexecuted = 0
    never = {}
    for module, path in MODULES.items():
        seen = {line for name, line in hits if name == str(path)}
        found = list(functions(compile(path.read_text(), str(path), "exec"), module))
        lines = set().union(*(own for _, _, own in found))
        executable += len(lines)
        unexecuted += len(lines - seen)
        # A function proper (not <module>, <lambda>, <listcomp>); its ``def`` line
        # runs when the enclosing scope defines it, so entry is any *other* line.
        never.update({name: len(own) for name, first, own in found
                      if len(own) >= 5 and "<" not in name.rpartition(".")[2] and not (own - {first}) & seen})
    print(f"executable lines {executable}, executed by no entry point {unexecuted} "
          f"({100 * unexecuted / executable:.1f} %); functions of >= 5 lines never entered: "
          f"{len(never)} ({sum(never.values())} lines)")
    for name in sorted(never):
        print(f"  {never[name]:4}  {name}  [{KEPT_UNREACHED.get(name, 'UNLISTED')}]")
    return 1 if set(never) - set(KEPT_UNREACHED) else 0


if __name__ == "__main__":
    sys.exit(main())
