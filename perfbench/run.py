#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <verify|check|stm|monitor> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `perfbench/target`). Spans of a traced run
go to `perfbench/out/`. The binary's metrics are checked against the
names and units in `BENCHMARK.json`; a per-layer metric of a layer the
workload does not drive is reported as 0. A workload that
`BENCHMARK.json` does not list (`monitor`, whose verdicts are wrong at
this commit) prints the binary's own metrics unchanged. The last line
of standard output is the result object.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        return fail("no workspace next to perfbench/ to build", 2)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if build.returncode != 0:
        return fail("build failed", build.returncode)
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--spans-dir", os.path.join(HERE, "out")]
    run = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return fail("run failed", run.returncode or 1)

    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workload = sys.argv[sys.argv.index("--workload") + 1] if "--workload" in sys.argv else None
    if workload not in {w["name"] for w in spec["workloads"]}:
        sys.stdout.write(run.stdout)
        return 0
    traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] != "0"
    want = spec["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in want}
    if unknown:
        return fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in want:
        v = got.get(m["name"])
        if v is None and not traced:
            return fail(f"end-to-end metric {m['name']} not measured")
        if v is not None and v["unit"] != m["unit"]:
            return fail(f"{m['name']} measured in {v['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = v or {"value": 0, "unit": m["unit"]}
    result["metrics"] = metrics
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
