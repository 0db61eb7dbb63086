"""The measured pipeline: set-up, train, quantize, save, load and a
closed-loop inference caller, with every output checked outside the timed
regions.

One process, one caller: the next operation starts only after the previous
one returned. After one pass through the pipeline, the caller cycles
through inference batches and, every few rounds, repeats training and the
quantize/save/load steps, so that the samples of every timed step spread
over the whole run rather than one stretch of it. End-to-end metrics come
from an untraced run; a traced run (`trace=True`) records spans around the
calls into each sbnn module and turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import copy
import os
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from sbnn import engine, metrics, modelio, train
from tracing import SpanTable, Tracer
from workloads import Workload, build_inputs, guard, stage_records

OUT = Path(__file__).resolve().parent / "out"
MODES = ("on", "off", "ref")  # infer with skipping, without, reference_forward
SETUP_REPS = 3


class Checks:
    """Checked operations: each call is one attempt; a false condition is
    one failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Run:
    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.tracer = Tracer() if trace else None
        self.checks = Checks()
        self.metrics = {}  # name -> (value, unit)
        self.records = {}
        self.times = {}  # "<tag><op>" -> seconds per call
        self.counters = {}  # infer mode -> OpsCounters of its last batch
        self.model_path = OUT / f"model-{os.getpid()}.sbnn"
        self.train_reports = {}  # epochs -> report.jsonl text of the first run
        self.inputs = self.saved = self.loaded = None

    # -- helpers ---------------------------------------------------------

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def group(self, kind, images=0):
        if self.tracer:
            self.tracer.group(kind, images)

    def timed(self, op, fn, images=0, tag=""):
        """fn() in its own span group, its wall time appended to times."""
        self.group(tag + op, images)
        t = perf_counter()
        out = fn()
        self.times.setdefault(tag + op, []).append(perf_counter() - t)
        return out

    def median(self, op):
        return statistics.median(self.times[op])

    def typical(self, op):
        """Mean seconds of `op` without its fastest and slowest tenth. Other
        load on a shared host slows calls by up to 1.8x for stretches of
        seconds to minutes (README.md, "Run structure"); the trimmed mean
        moves smoothly with a run's share of slowed time, where the median
        jumps between the two speeds and the fastest call hinges on a rare
        unslowed stretch."""
        xs = sorted(self.times[op])
        k = len(xs) // 10
        return statistics.fmean(xs[k : len(xs) - k])

    @contextlib.contextmanager
    def untraced(self):
        """Run the block without wrappers (the traced run's baselines)."""
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    # -- the run ---------------------------------------------------------

    def execute(self, import_s):
        if self.tracer:
            self.tracer.install()
        try:
            OUT.mkdir(exist_ok=True)
            build_s = self.setup()
            # desk-train quantizes a trained network, seeded models their own
            self.network = self.inputs.network
            if self.w.one_bits is None:
                self.network = self.train_rep(self.w.train_epochs, tag="model_")
            self.quantize_rep()
            self.oracle()
            self.save_rep()
            self.cold_rep()
            if self.loaded is None:
                self.loaded = self.model  # keep measuring; the failures are counted
            warmup_s = self.warmup()
            self.put("setup_s", import_s + build_s + warmup_s, "s")
            if self.tracer:
                self.traced_rounds()
            else:
                self.closed_loop()
            # before scoring, so that the peak is the workload's own
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.put("peak_rss_mb", rss_kb / 1024, "MB")
            self.score()
        finally:
            if self.tracer:
                self.tracer.uninstall()
            self.model_path.unlink(missing_ok=True)
        self.records["samples"] = {k: len(v) for k, v in self.times.items()}
        if self.tracer:
            self.layer_metrics()
        else:
            self.summarise()

    def setup(self):
        times = []
        for _ in range(SETUP_REPS):
            self.group("setup")
            t = perf_counter()
            inputs = build_inputs(self.w, self.seed)
            times.append(perf_counter() - t)
            self.checks(
                self.inputs is None
                or all(same_bits(a, b) for a, b in zip(self.inputs.pool, inputs.pool)),
                "setup: the same seed gives the same inputs",
            )
            self.inputs = inputs
        return statistics.median(times)

    def train_rep(self, epochs=1, tag=""):
        """Train a copy of the initial network for `epochs` and return it.
        The closed loop times one-epoch trainings, so that a run holds many
        samples of training time."""
        inp = self.inputs
        net = copy.deepcopy(inp.network)
        cfg = self.w.train_config(epochs)
        report = self.timed(
            "train",
            lambda: train.train(net, (inp.train_images, inp.train_labels), cfg),
            tag=tag,
        ).to_jsonl()
        first = self.train_reports.setdefault(epochs, report)
        self.checks(report == first, "train: the same seed gives the same report")
        return net

    def quantize_rep(self):
        w = self.w
        self.model = self.timed(
            "quantize", lambda: train.quantize_network(self.network, w.image_shape, w.classes)
        )

    def oracle(self):
        """Reference logits of every pool batch, the ops report and the
        workload validity guard, from the first quantized model."""
        self.group("oracle")
        self.report = metrics.build_ops_report(self.model)
        # reference_forward is the oracle every timed batch is compared with
        self.expected = [engine.reference_forward(self.model, x) for x in self.inputs.pool]
        recs = stage_records(self.model, self.inputs.pool)
        self.records["stages"] = recs
        self.records["guard"] = []
        for what, ok in guard(self.w, recs):
            self.checks(ok, f"workload validity: {what}")
            self.records["guard"].append({"condition": what, "ok": ok})

    def save_rep(self):
        self.timed("save", lambda: modelio.save_model(self.model_path, self.model))
        data = self.model_path.read_bytes()
        if self.saved is None:
            self.saved = data
        self.checks(data == self.saved, "save: the same model gives the same bytes")

    def load_rep(self, cold=False):
        """Load the saved file and check that it re-encodes to the saved
        bytes; with `cold`, also time the first infer on the loaded model."""
        try:
            model = self.timed("load", lambda: modelio.load_model(self.model_path))
        except modelio.ValidationError as exc:
            self.checks(False, f"load: {exc}")
            return
        if cold:
            x0 = self.inputs.pool[0]
            logits, _ = self.timed("cold", lambda: engine.infer(model, x0), images=x0.shape[0])
            self.checks(same_bits(logits, self.expected[0]), "cold infer logits == reference logits")
        self.checks(
            modelio.encode(model) == self.saved,
            "load: encode(load_model(saved)) == saved bytes",
        )
        if self.loaded is None:
            self.loaded = model

    def cold_rep(self):
        self.load_rep(cold=True)

    def warmup(self):
        t = perf_counter()
        for i in range(len(self.inputs.pool)):
            for mode in MODES:
                self.batch(mode, i, tag="warm_")
        return perf_counter() - t

    def batch(self, mode, i, tag=""):
        x = self.inputs.pool[i]
        if mode == "ref":
            logits = self.timed(
                "infer_ref", lambda: engine.reference_forward(self.loaded, x), x.shape[0], tag
            )
        else:
            logits, counters = self.timed(
                f"infer_{mode}",
                lambda: engine.infer(self.loaded, x, skip=mode == "on"),
                x.shape[0],
                tag,
            )
            self.counters[mode] = counters
        self.checks(
            same_bits(logits, self.expected[i]),
            f"{mode} logits == reference logits (batch {i})",
        )
        if mode == "on":
            self.checks(
                metrics.counters_match_report(counters, self.report),
                "skip-on counters match build_ops_report",
            )

    def closed_loop(self):
        """The closed-loop caller. Each round runs every operation of the
        workload's schedule whose period divides the round number. It runs
        for `seconds` and until it has timed min_skip_batches skip-on
        batches."""
        w = self.w
        deadline = perf_counter() + self.seconds
        r = 0
        while (
            perf_counter() < deadline
            or len(self.times.get("infer_on", ())) < w.min_skip_batches
        ):
            for op, period in w.every.items():
                if r % period:
                    continue
                if op in MODES:
                    self.batch(op, r % len(self.inputs.pool))
                else:
                    getattr(self, op + "_rep")()
            r += 1

    def traced_rounds(self):
        """The traced run's measurements. Training and every inference round
        run once untraced, as the baseline of trace.*overhead_share, and
        once traced."""
        epochs = self.w.train_epochs
        with self.untraced():
            self.train_rep(epochs, tag="base_")
        self.train_rep(epochs)
        for r in range(self.w.trace_rounds):
            i = r % len(self.inputs.pool)
            with self.untraced():
                for mode in MODES:
                    self.batch(mode, i, "base_")
            for mode in MODES:
                self.batch(mode, i)

    def score(self):
        """accuracy on the held-out images, in batches of the workload's
        size, and binary ops per image."""
        inp = self.inputs
        self.group("score")
        chunks = range(0, len(inp.heldout_images), self.w.batch)
        batches = [inp.heldout_images[i : i + self.w.batch] for i in chunks]
        labels = inp.heldout_labels
        if labels is None:
            # seeded models have no task: the float network's classes are
            # the labels, so accuracy measures quantization fidelity
            labels = np.concatenate(
                [np.argmax(inp.network.forward(x, train=False), axis=1) for x in batches]
            )
        classes = np.concatenate(
            [np.argmax(engine.infer(self.loaded, x)[0], axis=1) for x in batches]
        )
        self.put("accuracy", np.mean(classes == labels), "fraction")
        c = self.counters["on"]
        self.put("bops_per_image", c.position_ops / c.images, "count")

    def summarise(self):
        """End-to-end metrics from the timed samples."""
        w, put, typ = self.w, self.put, self.typical
        put("train_img_per_s", w.train_images / typ("train"), "img/s")
        put("quantize_ms", 1e3 * typ("quantize"), "ms")
        put("save_ms", 1e3 * typ("save"), "ms")
        if "load" in self.times:
            put("load_ms", 1e3 * typ("load"), "ms")
            put("cold_infer_ms", 1e3 * typ("cold"), "ms")
        B = w.batch
        put("infer_img_per_s", B / typ("infer_on"), "img/s")
        put("infer_noskip_img_per_s", B / typ("infer_off"), "img/s")
        put("reference_img_per_s", B / typ("infer_ref"), "img/s")
        on_ms = [1e3 * t for t in self.times["infer_on"]]
        put("infer_batch_ms_p50", statistics.median(on_ms), "ms")
        put("infer_batch_ms_p90", statistics.quantiles(on_ms, n=10)[8], "ms")

    # -- per-layer metrics from the trace ---------------------------------

    def layer_metrics(self):
        tab = SpanTable(self.tracer)
        put = self.put
        ON, OFF, REF = {"infer_on"}, {"infer_off"}, {"infer_ref"}
        STEP = {"step"}
        img_on = tab.images(ON)
        n_off = len(tab.groups(OFF))
        n_on = len(tab.groups(ON))
        steps = len(tab.groups(STEP))

        def us_on(names, parent=None):
            return 1e6 * tab.self_s(names, ON, parent) / img_on

        put("engine.window_us_per_img", us_on({"engine.BinStage.window_bits"}), "us/img")
        put("engine.pack_us_per_img", us_on({"engine.pack"}), "us/img")
        put("engine.gather_us_per_img", us_on({"engine.BinStage.forward"}), "us/img")
        put(
            "engine.remap_threshold_us_per_img",
            us_on({"engine.affine_remap"})
            + us_on({"engine.FusedThreshold.decide"}, parent="engine.BinStage.forward"),
            "us/img",
        )
        put(
            "engine.float_stage_us_per_img",
            1e6 * tab.total_s({"engine.FloatStage.forward"}, ON) / img_on,
            "us/img",
        )
        put(
            "engine.pool_head_us_per_img",
            1e6 * tab.total_s({"engine.BitPool.forward", "engine.Head.forward"}, ON) / img_on,
            "us/img",
        )
        put(
            "engine.reference_self_us_per_img",
            1e6 * tab.self_s({"engine.reference_forward"}, REF) / tab.images(REF),
            "us/img",
        )

        on, off = self.counters["on"], self.counters["off"]
        wp_on, wp_off = on.word_popcounts / on.images, off.word_popcounts / off.images
        put("engine.word_popcounts_per_img_skip", wp_on, "count/img")
        put("engine.word_popcounts_per_img_noskip", wp_off, "count/img")
        put("engine.skip_word_ratio", wp_on / wp_off, "fraction")
        put("engine.gather_ops_per_img", on.gather_ops / on.images, "count/img")
        convs = [s.packed for s in self.loaded.binary_stages() if s.packed.kind == "conv3x3"]
        k = np.sum([p.kernel_counts for p in convs], axis=0)
        for name, v in zip(("zero", "single", "dense"), k):
            put(f"engine.kernels_{name}_share", v / k.sum(), "fraction")
        rows = sum(p.out_ch for p in convs)
        dense_rows = sum(
            int(np.any(p.bits.reshape(p.out_ch, p.in_ch, 9).sum(axis=2) >= 2, axis=1).sum())
            for p in convs
        )
        put("engine.dense_rows_share", dense_rows / rows, "fraction")

        put(
            "engine.prepare_ms",
            1e3 * tab.per_group_median({"engine.BinStage._prepare"}, {"cold"}, inclusive=True),
            "ms",
        )
        put(
            "engine.classify_ms",
            1e3 * tab.per_group_median({"engine.classify_kernels"}, {"quantize", "load"}),
            "ms",
        )
        put(
            "engine.threshold_fit_ms",
            1e3 * tab.per_group_median({"engine.FusedThreshold.from_batchnorm"}, {"quantize"}),
            "ms",
        )

        matmat = {"_kernels.and_popcount_matmat"}
        put("kernels.and_popcount_ms", 1e3 * tab.self_s(matmat, OFF) / n_off, "ms/batch")
        put("kernels.and_popcount_calls", tab.calls(matmat, OFF) / n_off, "count/batch")
        put(
            "kernels.popcount_rows_ms",
            1e3 * tab.self_s({"_kernels.popcount_rows"}, OFF) / n_off,
            "ms/batch",
        )
        both = ON | OFF
        put(
            "kernels.word_pairs_per_s",
            tab.work(matmat, both, "word_pairs") / tab.self_s(matmat, both),
            "1/s",
        )
        put(
            "kernels.bytes_moved_computed",
            tab.work(matmat, OFF, "bytes") / n_off,
            "B/batch",
        )
        put("bitpack.pack_calls", tab.calls({"engine.pack"}, ON) / n_on, "count/batch")
        put(
            "bitpack.bytes_packed_computed",
            tab.work({"engine.pack"}, ON, "bytes") / n_on,
            "B/batch",
        )

        decode_s = tab.per_group_median({"modelio.decode"}, {"load"})
        put(
            "modelio.encode_ms",
            1e3 * tab.per_group_median({"modelio.encode"}, {"save"}),
            "ms",
        )
        put("modelio.decode_ms", 1e3 * decode_s, "ms")
        put("modelio.file_bytes", len(self.saved), "B")
        put("modelio.payload_bits", modelio.payload_bits(self.model), "bit")
        put("modelio.decode_mb_per_s", len(self.saved) / 1e6 / decode_s, "MB/s")

        def ms_step(names):
            return 1e3 * tab.self_s(names, STEP) / steps

        put("nn.forward_ms_per_step", ms_step({"nn.Network.forward"}), "ms/step")
        put("nn.backward_ms_per_step", ms_step({"nn.Network.backward"}), "ms/step")
        put("nn.conv_forward_ms_per_step", ms_step({"nn.Conv3x3.forward"}), "ms/step")
        put("nn.conv_backward_ms_per_step", ms_step({"nn.Conv3x3.backward"}), "ms/step")
        put(
            "nn.batchnorm_ms_per_step",
            ms_step({"nn.BatchNorm.forward", "nn.BatchNorm.backward"}),
            "ms/step",
        )
        put("train.step_self_ms", ms_step({"train.sbnn_step"}), "ms/step")
        put("train.adam_ms_per_step", ms_step({"train.Adam.step"}), "ms/step")
        put(
            "train.evaluate_ms_per_epoch",
            1e3 * tab.per_group_median({"train.evaluate"}, {"evaluate"}, inclusive=True),
            "ms/epoch",
        )
        put("binquant.fit_omega_ms_per_step", ms_step({"nn.fit_omega"}), "ms/step")
        put(
            "sparsity.penalty_ms_per_step",
            ms_step({"train.penalty_j", "train.lambda_update"}),
            "ms/step",
        )
        put(
            "dataio.synthetic_ms",
            1e3 * tab.per_group_median({"dataio.synthetic_classification"}, {"setup"}),
            "ms",
        )
        put(
            "metrics.ops_report_ms",
            1e3 * tab.total_s({"metrics.build_ops_report"}, {"oracle"}),
            "ms",
        )

        # share of untraced throughput lost to tracing, base = untraced
        put(
            "trace.overhead_share",
            1.0 - self.median("base_infer_on") / self.median("infer_on"),
            "fraction",
        )
        put(
            "trace.train_overhead_share",
            1.0 - self.times["base_train"][-1] / self.times["train"][-1],
            "fraction",
        )
