"""The workload's own process: drives `wlfiltration.cli.main` as a user would.

Run by `run.py` in a fresh interpreter, one per workload run, so that the
peak resident memory it reports belongs to the program's work alone. It
repeats whole rounds of the same operations until the time is up:

- mode `e2e`: set-up (generate and write the dataset, 3 times), then twice
  compute --threads 1 and inspect, each block followed by a calibration;
  then compute --threads 2;
- mode `trace`: twice compute --threads 1 untraced and the same traced, then
  compute --threads 2; after the rounds, single layers are called directly,
  and the spans go to a JSON file.

Both modes attempt five operations a round, one of them compute --threads
2, so the share of failed operations is the same in every run.

Writes one JSON result to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Span name -> (module, function). The CLI reaches these through module
# globals, so wrapping the module attributes times the calls it makes.
TRACED = {
    "graphs.load_tud_dataset": ("wlfiltration.graphs", "load_tud_dataset"),
    "kernels.build_filtration": ("wlfiltration.kernels", "build_filtration"),
    "filtration.pooled_weights": ("wlfiltration.filtration", "pooled_weights"),
    "filtration.fit_thresholds": ("wlfiltration.filtration", "fit_thresholds"),
    "filtration.fit_thresholds_auto": ("wlfiltration.filtration", "fit_thresholds_auto"),
    "kernels.gram_matrix_for_filtration": ("wlfiltration.kernels", "gram_matrix_for_filtration"),
    "filtration.reweight": ("wlfiltration.filtration", "reweight"),
    "wl.extract_all": ("wlfiltration.wl", "extract_all"),
    "gram_io.write_gram": ("wlfiltration.gram_io", "write_gram"),
}
FIT = {"filtration.fit_thresholds", "filtration.fit_thresholds_auto"}
COMPUTE_CHILDREN = {"graphs.load_tud_dataset", "kernels.build_filtration",
                    "kernels.gram_matrix_for_filtration", "gram_io.write_gram"}
W1_SAMPLE = 2000
EXTRACT_T2_REPS = 3
# Set-up repeats per round: spread over the whole run like the commands, so
# that a few seconds of a slow phase on the machine cannot decide its median.
SETUP_PER_ROUND = 3
# Timed command pairs per round, before the one compute --threads 2: more
# samples of the timed commands for each second of the run.
PAIRS_PER_ROUND = 2
# Seconds `calibration()` takes on the reference machine (see README.md).
CALIBRATION_REF_S = 0.030
# A block's times are scaled by the calibrations up to this many blocks away:
# near enough to follow the host's speed phases, and four of them, so that
# one erratic calibration cannot decide the scale.
CALIBRATION_REACH = 1


def calibration() -> float:
    """Time a fixed piece of pure-Python work; seconds.

    Integer arithmetic and dict/tuple traffic, the two kinds of work the
    program's loops do, on a small working set that adds little to peak
    memory. Its time tracks how fast the shared host runs this process at
    the moment, and it calls no code of the program.
    """
    start = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    for rep in range(4):
        a = {(i % 61, i // 61 + rep): (i, i * 0.5) for i in range(3000)}
        b = {(i % 59, i // 59): (i * 0.25, i) for i in range(3000)}
        for key in a.keys() & b.keys():
            x, y = a[key], b[key]
            s += abs(x[1] - y[0]) + x[0] * y[1]
    return time.perf_counter() - start


def run_cli(argv: list[str], around=contextlib.nullcontext) -> tuple[float, int, str]:
    """Time one `wlfiltration` command in this process; (seconds, exit code, stdout).

    `around()` is entered just around the call to `main`, so a span it opens
    holds the program's work and none of the benchmark's.
    """
    from wlfiltration.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with around():
                code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(err.getvalue())
    return elapsed, code, out.getvalue()


def read_bytes(path: str) -> bytes | None:
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


class Rounds:
    """Counts attempted and failed operations; remembers each command's first output.

    In `e2e`, it also keeps the timed blocks and calibrates after each one.
    """

    def __init__(self, args, w):
        self.args, self.w = args, w
        self.attempted = self.failed = 0
        # timed blocks (metric, seconds) and the calibrations around them:
        # block i lies between calibrations i and i + 1
        self.blocks: list[tuple[str, list[float]]] = []
        self.calibrations = [calibration()]
        # first output of each command; kept as bytes, since a hash module
        # (OpenSSL) would add megabytes to the worker's peak memory
        self.outputs: dict[str, bytes | None] = {}
        self.repeatable = True
        self.inspect_text = ""
        # operation name -> why its output was wrong (last time)
        self.wrong: dict[str, str] = {}

    def compute_argv(self, threads: int, out: str) -> list[str]:
        return ["compute", "--dataset", self.args.data, "--name", "DS",
                *self.w.compute_args(), "--threads", str(threads), "--out", out]

    def op(self, name: str, argv: list[str], around=contextlib.nullcontext,
           same_as: str | None = None) -> float | None:
        """Run one command; its seconds, or None if it exited nonzero.

        Every repetition of a compute must write the same bytes. With
        `same_as`, they must also be the bytes of that command's first
        output, or the operation fails; its time is still returned, since
        the command ran to its end.
        """
        elapsed, code, text = run_cli(argv, around)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return None
        if argv[0] == "compute":
            data = read_bytes(argv[-1])
            self.repeatable &= self.outputs.setdefault(name, data) == data
            expected = self.outputs.get(same_as) if same_as else data
            if data != expected:
                self.failed += 1
                rows = sum(a != b for a, b in itertools.zip_longest(
                    (data or b"").splitlines(), (expected or b"").splitlines()))
                self.wrong[name] = f"its Gram file differs from that of {same_as} in {rows} rows"
        else:
            self.inspect_text = text
        return elapsed

    def record(self, name: str, seconds: list[float | None]) -> None:
        """Keep the times of one block of metric `name`, then calibrate."""
        self.blocks.append((name, [t for t in seconds if t is not None]))
        self.calibrations.append(calibration())

    def times(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Samples per metric: scaled to the reference speed, and as measured.

        The host's speed changes in phases of a fraction of a second to
        seconds, and drifts over minutes; both move raw medians between runs
        by more than any bound allows. Each block's times are multiplied by
        CALIBRATION_REF_S over the median of the calibrations made within
        CALIBRATION_REACH blocks of it, which cancels much of both.
        """
        scaled: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {"calibration_s": self.calibrations}
        for i, (name, seconds) in enumerate(self.blocks):
            near = self.calibrations[max(0, i - CALIBRATION_REACH):i + CALIBRATION_REACH + 2]
            speed = CALIBRATION_REF_S / statistics.median(near)
            scaled.setdefault(name, []).extend(t * speed for t in seconds)
            raw.setdefault(name, []).extend(seconds)
        return scaled, raw

    def setup(self) -> list[float]:
        """Time generating the seeded graphs and writing them (not an operation)."""
        times = []
        for _ in range(SETUP_PER_ROUND):
            start = time.perf_counter()
            self.w.generate(self.args.seed).write(os.path.join(self.args.out, "setup"))
            times.append(time.perf_counter() - start)
        return times

    def inspect(self) -> float | None:
        return self.op("inspect_s", ["inspect", "--dataset", self.args.data, "--name", "DS",
                                     *self.w.cli_args()])

    def result(self) -> dict:
        scaled, raw = self.times()
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "repeatable": self.repeatable, "inspect_text": self.inspect_text,
                "samples": scaled, "raw": raw}


def compute_t2(r: Rounds) -> float | None:
    """`compute --threads 2`, which must write the bytes `--threads 1` wrote."""
    return r.op("cli.compute_t2_s", r.compute_argv(2, os.path.join(r.args.out, "gram_t2")),
                same_as="compute_s")


def e2e(args, w) -> dict:
    r = Rounds(args, w)
    gram = os.path.join(args.out, "gram_t1")
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        r.record("setup_s", r.setup())
        for _ in range(PAIRS_PER_ROUND):
            r.record("compute_s", [r.op("compute_s", r.compute_argv(1, gram))])
            r.record("inspect_s", [r.inspect()])
        compute_t2(r)
    return r.result()


def layer_values(tracer, root: int) -> dict[str, float]:
    """Per-layer seconds of one traced compute, from the spans below `root`."""
    def total(names: set[str], below: int = root):
        found = tracer.descendants_named(below, names)
        return math.fsum(s.seconds for s in found) if found else None

    values = {
        "graphs.load_s": total({"graphs.load_tud_dataset"}),
        "kernels.build_filtration_s": total({"kernels.build_filtration"}),
        "filtration.fit_s": total(FIT),
        "filtration.reweight_s": total({"filtration.reweight"}),
        "wl.extract_s": total({"wl.extract_all"}),
        "kernels.gram_s": total({"kernels.gram_matrix_for_filtration"}),
        "gram_io.write_s": total({"gram_io.write_gram"}),
    }
    grams = tracer.descendants_named(root, {"kernels.gram_matrix_for_filtration"})
    inner = [total(names, g.sid) for g in grams
             for names in ({"filtration.reweight"}, {"wl.extract_all"})]
    if grams and None not in inner:
        values["kernels.assemble_s"] = values["kernels.gram_s"] - math.fsum(inner)
    children = [s for s in tracer.children(root) if s.name in COMPUTE_CHILDREN]
    if {s.name for s in children} == COMPUTE_CHILDREN:
        values["cli.compute_other_s"] = tracer.spans[root].seconds - math.fsum(
            s.seconds for s in children)
    return {k: v for k, v in values.items() if v is not None}


def w1_sample(args, w, thresholds: list[float]) -> list:
    """A seeded sample of shared-feature histogram pairs, as sparse CDF points."""
    from checks import edge_weights, wl_histograms

    bg = w.generate(args.seed)
    weights = edge_weights(bg, w)
    rng = random.Random(f"perfbench-w1:{args.seed}")
    ids: dict = {}
    graphs = rng.sample(range(len(bg)), min(len(bg), 40))
    hists = [wl_histograms(bg.n[g], bg.edges[g], bg.labels[g], weights[g], thresholds, w.h, ids)
             for g in graphs]

    def cdf(counts):
        mass, running, out = sum(counts), 0, []
        for i, c in enumerate(counts):
            if c:
                running += c
                out.append((i, running / mass))
        return tuple(out)

    pairs = [(cdf(a[f]), cdf(b[f]))
             for x, a in enumerate(hists) for b in hists[x + 1:]
             for f in sorted(a.keys() & b.keys())]
    return rng.sample(pairs, W1_SAMPLE) if len(pairs) > W1_SAMPLE else pairs


def direct_layers(tracer, args, w, thresholds: list[float]) -> dict[str, list[float]]:
    """Layers the CLI compute path does not isolate, called directly.

    If a later version changes one of these functions, its metric is reported
    as absent and the run goes on.
    """
    from wlfiltration import filtration, graphs, kernels, transport, wl

    samples: dict[str, list[float]] = {}
    try:
        dataset = graphs.load_tud_dataset(args.data, "DS")
        spec = filtration.WeightFunctionSpec(kind=w.weights, walk_length=w.walk_length)
        weighted = [filtration.reweight(g, spec) for g in dataset.graphs]
        filt = kernels.build_filtration(dataset, spec, w.k if w.k == "auto" else int(w.k))
        times = []
        for _ in range(EXTRACT_T2_REPS):
            with tracer.span("wl.extract_all[threads=2]") as sid:
                wl.extract_all(weighted, filt, w.h, wl.LabelInterner(), threads=2)
            times.append(tracer.spans[sid].seconds)
        samples["wl.extract_t2_s"] = times
    except (AttributeError, TypeError) as exc:
        print(f"absent: wl.extract_t2_s ({exc})")

    try:
        line = transport.GroundLine(tuple(float(t) for t in thresholds))
        pairs = w1_sample(args, w, thresholds)
        with tracer.span("transport.wasserstein_cdf_points[sample]") as sid:
            for nz1, nz2 in pairs:
                transport.wasserstein_cdf_points(nz1, nz2, line)
        if pairs:
            samples["transport.w1_us"] = [tracer.spans[sid].seconds / len(pairs) * 1e6]
    except (AttributeError, TypeError) as exc:
        print(f"absent: transport.w1_us ({exc})")
    return samples


def trace(args, w) -> dict:
    from tracing import Tracer

    tracer = Tracer(w.name)
    r = Rounds(args, w)
    out = os.path.join(args.out, "gram_t1")
    plain, traced, layers, t2 = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for _ in range(PAIRS_PER_ROUND):
            done = r.op("compute_s", r.compute_argv(1, out))
            with tracer.installed(TRACED):
                traced_done = r.op("compute_s", r.compute_argv(1, out),
                                   around=lambda: tracer.span("cli.compute"))
            if done is not None and traced_done is not None:
                plain.append(done)
                traced.append(traced_done)
                layers.append(layer_values(tracer, tracer.children(None)[-1].sid))
        done = compute_t2(r)
        if done is not None:
            t2.append(done)

    samples = {name: [lv[name] for lv in layers if name in lv]
               for name in sorted({k for lv in layers for k in lv})}
    if t2:
        samples["cli.compute_t2_s"] = t2
    if plain:
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            thresholds = json.load(fh)["thresholds"]
        samples.update(direct_layers(tracer, args, w, thresholds))
        samples["trace.overhead_s"] = [t - u for t, u in zip(traced, plain)]
    absent = sorted(tracer.missing)
    if absent:
        print("absent functions: " + ", ".join(absent))
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.as_records(), fh)
    return {**r.result(), "samples": samples}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("e2e", "trace"), required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    w = WORKLOADS[args.workload]
    import wlfiltration.cli  # noqa: F401  (imports are not part of any timing)

    result = e2e(args, w) if args.mode == "e2e" else trace(args, w)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
