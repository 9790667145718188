"""Count the bytecode instructions a simulation step executes.

    python3 tools/opcount.py [--warmup N] [--steps N] [--lines NAME]

For the control and churn_crowd configs of perfbench/workloads.py, at their
pinned seed, it builds realization 0's `Simulation`, runs `--warmup` steps,
then runs `--steps` more under `sys.settrace` with
`frame.f_trace_opcodes = True` and counts every instruction executed, per
code object.  It prints `sys.version`, then per workload the total and each
code object's instructions per counted step, most first.  `--lines NAME`
also prints, for each code object whose name or qualified name is NAME
(`walk`, `Simulation.step`), its instructions per step for each source line.

The counts are exact: they depend on the interpreter's version and the
code, not on the machine or its load, so two runs print the same.  From
Python 3.12 on, opcode events reach a code object only from its first
call after a frame of it asked for them, so the warm-up runs under a tracer
that asks on every call and counts nothing; there a code object first
called in the counted steps misses that call's instructions.  Like
tools/check_golden.py it needs only the standard library, imports poptree
from src/ and reads perfbench/workloads.py without changing anything there.
"""

from __future__ import annotations

import argparse
import linecache
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("control", "churn_crowd")


def name_of(code) -> str:
    return getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11+


def count_step(config, warmup: int, steps: int) -> Counter:
    """Instructions executed by `steps` calls of `Simulation.step` after
    `warmup` uncounted ones, keyed by (code object, line)."""
    from poptree.engine import Simulation

    def ask_for_opcodes(frame, event, arg):
        frame.f_trace_opcodes = True  # no local trace function: nothing is called per opcode

    step = Simulation(config).step
    sys.settrace(ask_for_opcodes)
    try:
        for _ in range(warmup):
            step()
    finally:
        sys.settrace(None)
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code, frame.f_lineno] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    # frames made from here on are traced; this one and its loop are not
    sys.settrace(on_call)
    try:
        for _ in range(steps):
            step()
    finally:
        sys.settrace(None)
    return counts


def report(name: str, counts: Counter, steps: int, lines: str | None) -> None:
    per_code: Counter = Counter()
    for (code, _), n in counts.items():
        per_code[code] += n
    print(f"{name}: {sum(per_code.values()) / steps:.1f} instructions per step")
    ranked = sorted(per_code.items(), key=lambda item: (-item[1], name_of(item[0])))
    for code, n in ranked:
        where = f"{Path(code.co_filename).name}:{code.co_firstlineno}"
        print(f"  {n / steps:9.1f}  {name_of(code)} ({where})")
    if lines is None:
        return
    for code, _ in ranked:
        if lines not in (code.co_name, name_of(code)):
            continue
        print(f"  per line of {name_of(code)}:")
        rows = sorted((line, n) for (c, line), n in counts.items() if c is code)
        for line, n in rows:
            text = linecache.getline(code.co_filename, line).rstrip() if line else ""
            print(f"  {n / steps:9.1f}  {line}: {text}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", type=int, default=10_000, help="uncounted steps first")
    parser.add_argument("--steps", type=int, default=3_000, help="traced steps counted")
    parser.add_argument("--lines", metavar="NAME", help="also count NAME's instructions per line")
    args = parser.parse_args(argv)
    if args.warmup < 0 or args.steps < 1:
        parser.error("--warmup must be >= 0 and --steps >= 1")

    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from poptree.engine import SimConfig
    from workloads import DEFAULT_SEED, experiment_file

    print(sys.version)
    print(f"{args.warmup} warm-up steps, {args.steps} counted")
    for name in WORKLOADS:
        config = SimConfig(**experiment_file(name, DEFAULT_SEED)["config"])
        report(name, count_step(config, args.warmup, args.steps), args.steps, args.lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
