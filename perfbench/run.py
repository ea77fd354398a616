"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed`` alone.  One round is the
workload's fixed list of at least ``MIN_OPS`` operations; a run repeats
whole rounds, one operation after another in this one process (a closed
loop with one client), until at least ``--seconds`` of operation time are
measured, after one untimed warm-up round (none for ``cli``, whose every
call is a fresh process).  ``ops_per_s`` is the operations run over their
total time.  Each operation's time is the mean of its times over the
rounds without the largest and the smallest, and ``op_ms_p50`` and
``op_ms_p90`` are percentiles of those times.  The outputs of the first
round run are checked against computations made apart from the program;
every later round must reproduce them exactly.  With
``--trace 1`` the run reports the per-layer metrics of ``layers.py``
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("tower", "roots", "surd", "cli")
MIN_OPS = 100        # per round: op_ms_p90 needs ten operations beyond it
# Fresh interpreters per run (setup_s is their median): two before the
# timed loop, up to five spread over it between rounds, the rest after it,
# so that the samples span the run's changes in machine speed.  One more,
# untimed, runs first: it writes the bytecode caches of a fresh checkout and
# brings the files imported into the page cache.
SETUP_SAMPLES = 9
SETUP_BEFORE = 2
SETUP_DURING = 5
CHILD_TIMEOUT_S = 120


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __eq__(self, other):
        return isinstance(other, Failed) and other.kind == self.kind

    def __repr__(self):
        return f"Failed({self.kind}: {self.message[:120]})"


class Context:
    """What the operations of a run share: paths, child processes, tracing."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.tracing = False  # the tracer is installed (cli children trace too)
        self.workdir = RESULTS / f"work-{workload}-{seed}-{os.getpid()}"
        self.child_rss_kb = 0
        self.last_child_rss_kb = 0
        self.child_traces: list = []

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.workdir)
        env.pop("PYTHONSTARTUP", None)
        return env

    def run_child(self, argv: list) -> tuple:
        """Run a child interpreter to completion; returns (code, stdout, stderr).

        Both pipes are drained with a selector and the child is reaped with
        ``os.wait4``, which also gives its own peak RSS.  On timeout the
        child is killed and still waited for.
        """
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=self.child_env(),
            cwd=str(CHECKOUT),
        )
        chunks = {proc.stdout: [], proc.stderr: []}
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        timed_out = False
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        for pipe in chunks:
            pipe.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out:
            raise TimeoutError(f"child {argv[:3]} exceeded {CHILD_TIMEOUT_S} s")
        self.last_child_rss_kb = usage.ru_maxrss
        return (
            proc.returncode,
            b"".join(chunks[proc.stdout]).decode(),
            b"".join(chunks[proc.stderr]).decode(),
        )


def measure_setup(ctx: Context, count: int) -> list:
    """Fresh-interpreter samples of import + input building (see setup_probe.py)."""
    samples = []
    for _ in range(count):
        argv = [str(HERE / "setup_probe.py"), ctx.workload, str(ctx.seed)]
        code, out, err = ctx.run_child(argv)
        if code != 0:
            raise RuntimeError(f"setup probe failed ({code}): {err.strip()[-400:]}")
        samples.append(json.loads(out.strip().splitlines()[-1]))
    return samples


def setup_sampler(ctx: Context, seconds: float, samples: list):
    """A ``between`` callback for ``measure``: one setup sample each time
    another 1/(SETUP_DURING + 1) of ``seconds`` has been measured, at most
    one per round and SETUP_DURING in all."""
    marks = [seconds * 1e9 * (k + 1) / (SETUP_DURING + 1) for k in range(SETUP_DURING)]

    def between(total_ns: float) -> None:
        if marks and total_ns >= marks[0]:
            marks.pop(0)
            samples.extend(measure_setup(ctx, 1))

    return between


def run_round(ops, times: list, outputs: list) -> int:
    """Run every operation once, appending its time to ``times[i]``;
    returns how many raised."""
    gc.collect()
    failed = 0
    clock = time.perf_counter_ns
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Failed(exc)
            failed += 1
        times[i].append(clock() - t0)
        outputs.append(out)
    return failed


def measure(ops, seconds: float, reference=None, between=None):
    """Whole rounds until `seconds` of operation time have been measured;
    ``between(total_ns)``, if given, runs after each round, untimed.

    Returns (per-operation times in ns, reference outputs, rounds, failures,
    mismatches); a round whose output differs from ``reference`` (the
    outputs of the first round run) is a mismatch.
    """
    times: list = [[] for _ in ops]
    mismatches: list = []
    rounds = failed = total = 0
    while rounds == 0 or total < seconds * 1e9:
        outputs: list = []
        failed += run_round(ops, times, outputs)
        total += sum(t[-1] for t in times)
        if reference is None:
            reference = outputs
        else:
            for op, got, want in zip(ops, outputs, reference):
                if got != want:
                    mismatches.append(f"{op.kind}: round {rounds} output differs from the first round")
        rounds += 1
        if between is not None:
            between(total)
    return times, reference, rounds, failed, mismatches


def typical_ns(samples: list) -> float:
    """An operation's time over the rounds: the mean without the largest and
    the smallest sample (the one sample of a one-round run as it is).

    The machine alternates, for ten seconds to minutes at a time, between
    a normal speed and one about a third faster, so the rounds of one run
    can mix both.  A median
    or a least time jumps from one speed to the other as that mix changes
    from run to run; a mean moves with the mix smoothly, and dropping the
    two extremes keeps a single stalled call out of it.
    """
    if len(samples) < 4:
        return statistics.fmean(samples)
    return statistics.fmean(sorted(samples)[1:-1])


def round_seconds(times: list) -> list:
    return [sum(t[r] for t in times) / 1e9 for r in range(len(times[0]))]


def check_outputs(ops, outputs) -> list:
    errors = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Failed):
            continue
        try:
            errors.extend(f"{op.kind}: {e}" for e in op.check(out))
        except Exception as exc:  # a check that cannot run is a failed check
            errors.append(f"{op.kind}: check raised {type(exc).__name__}: {exc}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypercomplex" / "__init__.py").is_file():
        print(f"error: no hypercomplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    RESULTS.mkdir(exist_ok=True)

    ctx = Context(args.workload, args.seed)
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def _run(args, ctx: Context) -> int:
    import hypercomplex

    if Path(hypercomplex.__file__).resolve().parent != (SRC / "hypercomplex").resolve():
        print(f"error: imported hypercomplex from {hypercomplex.__file__}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"wl_{args.workload}")

    measure_setup(ctx, 1)
    setup = measure_setup(ctx, SETUP_BEFORE)
    between = setup_sampler(ctx, args.seconds, setup)
    inputs = module.build(args.seed)
    ops = module.operations(inputs, ctx)
    if len(ops) < MIN_OPS:
        raise RuntimeError(f"a round has {len(ops)} operations, fewer than {MIN_OPS}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    # One untimed warm-up round, whose outputs are the ones checked; a cli
    # call is a fresh process each time, so there is nothing to warm up.
    reference = None
    untimed = n_untimed_failed = 0
    if args.workload != "cli":
        reference = []
        n_untimed_failed += run_round(ops, [[] for _ in ops], reference)
        untimed += 1
    if args.trace:
        import layers

        # One untraced round first: the reference for the tracing overhead.
        plain: list = [[] for _ in ops]
        first: list = []
        n_untimed_failed += run_round(ops, plain, first)
        untimed += 1
        if reference is None:
            reference = first
        tracer = layers.Tracer(ctx)
        tracer.install()
        ctx.tracing = True
        try:
            times, outputs, rounds, n_failed, mismatches = measure(ops, args.seconds, reference, between)
        finally:
            ctx.tracing = False
            tracer.uninstall()
        setup += measure_setup(ctx, SETUP_SAMPLES - len(setup))
        metrics = tracer.metrics(rounds, setup)
        overhead = statistics.median(round_seconds(times)) / round_seconds(plain)[0] - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        times, outputs, rounds, n_failed, mismatches = measure(ops, args.seconds, reference, between)
        setup += measure_setup(ctx, SETUP_SAMPLES - len(setup))
        if args.workload == "cli":
            rss_kb = ctx.child_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        per_op_ms = [typical_ns(t) / 1e6 for t in times]
        metrics = {
            "ops_per_s": {"value": len(ops) * rounds / sum(round_seconds(times)), "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(per_op_ms), "unit": "ms"},
            "op_ms_p90": {"value": statistics.quantiles(per_op_ms, n=10, method="inclusive")[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(s["ready_s"] for s in setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }

    errors = mismatches + check_outputs(ops, outputs)
    n_failed += n_untimed_failed
    attempted = len(ops) * (rounds + untimed)
    if not args.trace:
        result["op_ms"] = [[op.kind, typical_ns(t) / 1e6] for op, t in zip(ops, times)]
        result["op_ns"] = times
    result.update(
        rounds=rounds,
        untimed_rounds=untimed,
        ops_per_round=len(ops),
        failed_per_round=[f"{op.kind}: {o!r}" for op, o in zip(ops, outputs) if isinstance(o, Failed)],
        errors=errors,
        metrics=metrics,
    )
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8"
    )
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
