"""The benchmark's three workloads, their inputs and their oracles.

Each workload is generated from the run's seed and drives the library
only through its public API: ``run_engine`` with the stock sinks,
``pack_panel`` / ``PanelStore.open``, and the ``ld_matrix`` /
``ld_cross`` / ``ld_pairs`` query calls. One *operation* is one engine
job (``dense-wide``, ``banded-ooc``) or one query (``region-queries``);
every operation's output is checked against ``ld_pairs`` (or, for
``ld_pairs`` queries themselves, an independent bit-unpacking
reference) outside the timed region.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.banding import BandSpec
from repro.core.engine import enumerate_tiles, run_engine
from repro.core.executors import stop_pools
from repro.core.gemm import resolve_blocking
from repro.core.ldmatrix import ld_cross, ld_matrix, ld_pairs
from repro.core.streaming import BandedNpySink, ThresholdCollector
from repro.encoding.bitmatrix import BitMatrix
from repro.io.panelstore import PanelStore, pack_panel
from repro.observe import MetricsRecorder
from repro.observe.modelcheck import compare_to_model
from repro.observe.spans import SpanProfiler, profiling

from tracing import Tracer

#: Input shapes. ``tiny`` exists for the benchmark's own smoke tests.
SHAPES = {
    "dense-wide": {
        "full": {"n_hap": 10_000, "n_snp": 5_000},
        "tiny": {"n_hap": 300, "n_snp": 700},
    },
    "banded-ooc": {
        "full": {"n_hap": 256, "n_snp": 100_000},
        "tiny": {"n_hap": 256, "n_snp": 3_000},
    },
    "region-queries": {
        "full": {"n_hap": 2_504, "n_snp": 100_000},
        "tiny": {"n_hap": 200, "n_snp": 4_096},
    },
}

#: Span names the library's GEMM layer records (self times sum to the
#: inclusive time of the ``gemm`` span).
GEMM_PHASES = (
    "gemm", "pack_a", "pack_b", "plane_matmul", "pop_kernel", "copy_out",
)
#: Relative/absolute tolerance of oracle comparisons. The GEMM path and
#: ``ld_pairs`` evaluate the same formula in a different order.
RTOL, ATOL = 1e-9, 1e-12
SPAN_CAPACITY = 1 << 18


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def simulate_panel(
    rng: np.random.Generator,
    n_hap: int,
    n_snp: int,
    *,
    block: int = 32,
    founders: int = 6,
    mutation: float = 0.002,
    monomorphic: float = 0.01,
    chunk: int = 1024,
) -> BitMatrix:
    """Haplotype mosaic with LD blocks, packed chunk by chunk.

    Every ``block`` SNPs each haplotype copies one of ``founders``
    founder haplotypes (Zipf-weighted), then bits flip at rate
    ``mutation``; a ``monomorphic`` share of SNPs is all-zero, so r² is
    undefined (NaN) for them. Packing per chunk keeps peak memory at one
    chunk of dense bits, not the whole panel.
    """
    weights = 1.0 / np.arange(1, founders + 1)
    weights /= weights.sum()
    words = np.empty((n_snp, -(-n_hap // 64)), dtype=np.uint64)
    for c0 in range(0, n_snp, chunk):
        width = min(chunk, n_snp - c0)
        n_blocks = -(-width // block)
        freq = rng.uniform(0.05, 0.95, size=(n_blocks, 1, block))
        patterns = rng.random((n_blocks, founders, block)) < freq
        assign = rng.choice(founders, size=(n_hap, n_blocks), p=weights)
        rows = np.arange(n_blocks) * founders + assign
        dense = patterns.reshape(n_blocks * founders, block)[rows]
        dense = np.ascontiguousarray(dense.reshape(n_hap, -1)[:, :width])
        flips = rng.integers(0, dense.size, size=rng.binomial(dense.size, mutation))
        dense.reshape(-1)[flips] ^= True
        dense[:, rng.random(width) < monomorphic] = False
        words[c0 : c0 + width] = BitMatrix.from_dense(dense.view(np.uint8)).words
    return BitMatrix(words=words, n_samples=n_hap)


def reference_r2(panel: BitMatrix, pairs: np.ndarray) -> np.ndarray:
    """r² from unpacked bits — independent of the library's LD code."""
    snps = np.unique(pairs)
    as_bytes = np.ascontiguousarray(panel.words[snps]).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, : panel.n_samples]
    row = {s: r for r, s in enumerate(snps.tolist())}
    a = bits[[row[i] for i in pairs[:, 0].tolist()]]
    b = bits[[row[j] for j in pairs[:, 1].tolist()]]
    n = float(panel.n_samples)
    p = a.sum(axis=1) / n
    q = b.sum(axis=1) / n
    d = (a & b).sum(axis=1) / n - p * q
    denom = p * (1.0 - p) * q * (1.0 - q)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, d * d / denom, np.nan)


def _mismatches(got: np.ndarray, want: np.ndarray) -> int:
    ok = np.isclose(got, want, rtol=RTOL, atol=ATOL, equal_nan=True)
    return int(np.count_nonzero(~ok))


# ---------------------------------------------------------------------------
# Measurement scaffolding shared by the workloads
# ---------------------------------------------------------------------------


@dataclass
class TraceContext:
    """What a traced operation records into; ``None`` means untraced."""

    tracer: Tracer
    recorder: MetricsRecorder
    profiler: SpanProfiler

    def span(self, name: str):
        return self.tracer.span(name)


def _span(trace: TraceContext | None, name: str):
    return trace.span(name) if trace is not None else contextlib.nullcontext()


@dataclass
class OpResult:
    """One operation: the cells it delivered and how its oracle judged it."""

    cells: int
    failed: bool = False
    report: object = None
    info: dict = field(default_factory=dict)


@dataclass
class Loop:
    """Latencies and outcomes of one closed-loop pass."""

    latencies: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    results: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def busy_s(self) -> float:
        return float(sum(self.latencies))


def _percentile_tail(latencies: list[float]) -> tuple[float, str]:
    """The 99th percentile, or the highest one with ten samples beyond it.

    The percentile moves continuously with the sample count (p98.9 of
    900), so runs of one workload that complete a few more or fewer
    operations report the same tail. The engine workloads run a dozen or
    two jobs per run, where no tail percentile has ten samples beyond it;
    below 200 samples the interpolated p90 stands in, which one slow job
    moves far less than it moves the maximum.
    """
    n = len(latencies)
    p = 90.0 if n < 200 else min(99.0, 100.0 * (1.0 - 10.0 / n))
    return float(np.percentile(latencies, p)), f"p{p:.2f} of {n}"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One benchmark workload: inputs, set-up, one operation, oracle."""

    name = ""
    executor = ""
    n_workers = 1
    setup_reps = 5
    unit_ops = 1
    #: Time the set-ups after the timed loop instead of before it.
    setup_after_loop = False

    def __init__(self, seed: int, scale: str, tmp: Path) -> None:
        self.seed = seed
        self.shape = SHAPES[self.name][scale]
        self.panel = simulate_panel(
            np.random.default_rng([seed, 1]),
            self.shape["n_hap"],
            self.shape["n_snp"],
        )
        self.oracle_rng = np.random.default_rng([seed, 3])

    # Subclasses implement these.
    def setup(self, trace: TraceContext | None) -> None:
        raise NotImplementedError

    def op(self, trace: TraceContext | None) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> int:
        """Oracle: mismatching cells of *result* (0 when correct)."""
        raise NotImplementedError

    def restart(self) -> None:
        """Rewind per-pass state (query streams) so passes repeat exactly."""

    def warmup(self) -> tuple[int, int]:
        """Untimed work before the loop: (operations attempted, failed)."""
        return 0, 0

    def close(self) -> None:
        """Release what the workload holds open."""

    # Generic machinery.
    def timed_setup(self, trace: TraceContext | None) -> list[float]:
        times = []
        for _ in range(self.setup_reps):
            start = time.perf_counter()
            self.setup(trace)
            times.append(time.perf_counter() - start)
        return times

    def loop(
        self,
        seconds: float,
        trace: TraceContext | None = None,
        max_ops: int | None = None,
    ) -> Loop:
        """Closed loop: the next operation starts when the last one ended.

        The oracle runs between operations, outside each latency.
        """
        out = Loop()
        deadline = time.perf_counter() + seconds
        while (max_ops is None and time.perf_counter() < deadline) or (
            max_ops is not None and out.attempted < max_ops
        ):
            if trace is not None:
                trace.tracer.request += 1
            out.attempted += 1
            start = time.perf_counter()
            try:
                result = self.op(trace)
            except Exception:  # noqa: BLE001 - a raised operation is a failure
                out.latencies.append(time.perf_counter() - start)
                out.cells.append(0)
                out.results.append(None)
                out.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            out.latencies.append(time.perf_counter() - start)
            out.cells.append(result.cells)
            out.results.append(result)
            bad = self.check(result)
            if bad or result.failed:
                out.failed += 1
                print(
                    f"oracle: {self.name} op {out.attempted} failed "
                    f"({bad} mismatching cells)",
                    file=sys.stderr,
                )
        return out

    def units(self, loop: Loop) -> list[tuple[float, int, int]]:
        """(wall, cells, ops) per unit of work: ``unit_ops`` operations."""
        k = self.unit_ops
        n_units = max(1, len(loop.latencies) // k)
        out = []
        for u in range(n_units):
            lat = loop.latencies[u * k : (u + 1) * k]
            cells = loop.cells[u * k : (u + 1) * k]
            out.append((sum(lat), sum(cells), len(lat)))
        return out

    def end_to_end(
        self, setup_times, loop: Loop, peak_rss, attempted, failed
    ) -> tuple[dict, dict]:
        units = self.units(loop)
        tail, tail_note = _percentile_tail(loop.latencies)
        metrics = {
            "pairs_per_s": statistics.median(c / w for w, c, _ in units),
            "wall_s": statistics.median(w for w, _, _ in units),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss,
            "queries_per_s": statistics.median(n / w for w, _, n in units),
            "query_p50_ms": 1e3 * float(np.percentile(loop.latencies, 50)),
            "query_p99_ms": 1e3 * tail,
            "ok_rate": 1.0 - failed / attempted,
        }
        notes = {
            "ops": len(loop.latencies),
            "units": len(units),
            "query_p99_ms": tail_note,
            "setup_reps": len(setup_times),
            "error_rate": failed / attempted,
        }
        return metrics, notes

    def per_layer(self, ctx: "TracedRun") -> dict:
        raise NotImplementedError


@dataclass
class TracedRun:
    """Everything the traced run collected, for per-layer extraction."""

    tracer: Tracer
    setup_profiler: SpanProfiler
    profiler: SpanProfiler
    recorder: MetricsRecorder
    loop: Loop
    setup_times: list

    @property
    def n_ops(self) -> int:
        return max(1, len(self.loop.latencies))


def _timer_total(recorder: MetricsRecorder, name: str) -> float:
    hist = recorder.timers.get(name)
    return hist.total if hist is not None else 0.0


def _timer_count(recorder: MetricsRecorder, name: str) -> int:
    hist = recorder.timers.get(name)
    return hist.count if hist is not None else 0


def _pct_of_peak(shapes: dict, busy_s: float) -> float:
    """%-of-peak in the machine model's currency (computed, not measured).

    *shapes* maps ``(m, n, k)`` GEMM shapes to call counts; each shape is
    scored with ``compare_to_model`` at 1 s and the ops-per-cycle summed,
    which equals scoring the whole mix against its GEMM busy time.
    """
    if busy_s <= 0 or not shapes:
        return 0.0
    params = resolve_blocking(None)
    achieved = 0.0
    peak = None
    for (m, n, k), calls in shapes.items():
        cmp = compare_to_model(m, n, k, 1.0, params=params)
        achieved += calls * cmp.measured_ops_per_cycle
        peak = cmp.peak_ops_per_cycle
    return 100.0 * achieved / busy_s / peak


def _word_pairs(shapes: dict) -> int:
    return sum(calls * m * n * k for (m, n, k), calls in shapes.items())


ZERO_ENGINE = {
    "engine.tiles": 0, "engine.tiles_pruned": 0, "engine.tiles_partial": 0,
    "engine.useful_cell_ratio": 0.0, "engine.driver_self_s": 0.0,
    "engine.retries": 0, "engine.quarantined": 0,
    "executors.wait_s": 0.0, "executors.worker_busy_frac": 0.0,
    "executors.batches": 0.0, "executors.spawn_s": 0.0,
    "executors.pool_spawns": 0, "executors.worker_respawns": 0,
}
ZERO_PREFETCH = {
    "prefetch.wait_s": 0.0, "prefetch.stalls": 0.0,
    "prefetch.bytes_read": 0.0, "prefetch.read_amplification": 0.0,
}
ZERO_PANELSTORE = {
    "panelstore.pack_s": 0.0, "panelstore.pack_mb_per_s": 0.0,
    "panelstore.open_s": 0.0,
}
ZERO_LDMATRIX = {
    "ldmatrix.slice_s": 0.0, "ldmatrix.matrix_s": 0.0,
    "ldmatrix.cross_s": 0.0, "ldmatrix.pairs_s": 0.0,
    "ldmatrix.repeat_cell_ratio": 0.0,
}


# ---------------------------------------------------------------------------
# Engine workloads
# ---------------------------------------------------------------------------


class EngineWorkload(Workload):
    """Shared per-layer extraction for the two ``run_engine`` workloads."""

    block_snps = 512
    band: int | None = None

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        #: Reports of the set-up jobs, whose spawns and retries count too.
        self.setup_reports = []

    def tiles(self):
        band = None if self.band is None else BandSpec(window=self.band)
        return enumerate_tiles(self.shape["n_snp"], self.block_snps, band=band)

    def engine(self, data, sink, trace, span="engine.run", **kwargs):
        if trace is None:
            return run_engine(data, sink, **kwargs)
        with trace.span(span):
            return run_engine(
                data, sink, recorder=trace.recorder, profiler=trace.profiler,
                **kwargs,
            )

    def delivered_cells(self, report) -> int:
        n = self.shape["n_snp"]
        return report.band_pairs if self.band is not None else n * (n + 1) // 2

    def bytes_written(self) -> int:
        return 0

    def engine_layers(self, ctx: TracedRun) -> dict:
        rec, k = ctx.recorder, ctx.n_ops
        reports = [r.report for r in ctx.loop.results if r is not None]
        setup_reports = self.setup_reports
        last = reports[-1]
        tiles = self.tiles()
        shapes: dict = {}
        for t in tiles:
            key = (t.i1 - t.i0, t.j1 - t.j0, self.panel.n_words)
            shapes[key] = shapes.get(key, 0) + k
        gemm_busy = sum(_timer_total(rec, f"phase.{p}") for p in GEMM_PHASES)
        totals = ctx.profiler.totals()
        spans = ctx.tracer.totals()
        run_wall = spans["engine.run"]["seconds"]
        deliver = spans.get("streaming.deliver", {"seconds": 0.0})["seconds"] / k
        written = self.bytes_written()
        computed = sum(t.n_pairs for t in tiles)
        setup_spawn = ctx.setup_profiler.totals().get("driver.pool_spawn", {})
        bytes_read = ctx.recorder.counters.get("prefetch.bytes_read", 0) / k
        return {
            "gemm.busy_s": gemm_busy / k,
            "gemm.words_per_s": _word_pairs(shapes) / gemm_busy if gemm_busy else 0.0,
            "gemm.pct_of_peak": _pct_of_peak(shapes, gemm_busy),
            "gemm.pack_s": (
                _timer_total(rec, "phase.pack_a") + _timer_total(rec, "phase.pack_b")
            ) / k,
            "gemm.calls": _timer_count(rec, "phase.gemm") / k,
            "stats.busy_s": _timer_total(rec, "phase.stat") / k,
            "engine.tiles": last.n_tiles,
            "engine.tiles_pruned": last.n_pruned,
            "engine.tiles_partial": last.n_partial,
            "engine.useful_cell_ratio": self.delivered_cells(last) / computed,
            "engine.driver_self_s": spans["engine.run"]["self_s"] / k,
            "engine.retries": sum(r.n_retries for r in reports + setup_reports),
            "engine.quarantined": sum(
                r.n_quarantined for r in reports + setup_reports
            ),
            "executors.wait_s": totals.get("driver.wait", {}).get("seconds", 0.0) / k,
            "executors.worker_busy_frac": _timer_total(
                rec, "engine.tile_compute_seconds"
            ) / (run_wall * last.n_workers),
            "executors.batches": sum(r.n_batches for r in reports) / k,
            "executors.spawn_s": setup_spawn.get("inclusive_seconds", 0.0)
            / max(1, len(ctx.setup_times)),
            "executors.pool_spawns": sum(
                r.n_pool_spawns for r in reports + setup_reports
            ),
            "executors.worker_respawns": sum(
                r.n_worker_respawns for r in reports + setup_reports
            ),
            "prefetch.wait_s": _timer_total(rec, "prefetch.stall_seconds") / k,
            "prefetch.stalls": _timer_count(rec, "prefetch.stall_seconds") / k,
            "prefetch.bytes_read": bytes_read,
            "prefetch.read_amplification": bytes_read / self.panel.words.nbytes,
            "streaming.deliver_s": deliver,
            "streaming.bytes_written": written,
            "streaming.write_mb_per_s": written / deliver / 2**20 if deliver else 0.0,
            **ZERO_PANELSTORE,
            **ZERO_LDMATRIX,
        }


class DenseWide(EngineWorkload):
    """Full lower-triangle r² on the warm persistent pool, sparse output."""

    name = "dense-wide"
    executor = "persistent"
    threshold = 0.8
    setup_reps = 3
    #: Tiles per dispatch batch. Fixed so the set-up job builds the same
    #: pool (arena slot size) the measured jobs then reuse.
    batch_tiles = 8

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        self.n_workers = os.cpu_count() or 1

    def _kwargs(self):
        return dict(
            engine=self.executor, n_workers=self.n_workers,
            block_snps=self.block_snps, batch_tiles=self.batch_tiles,
        )

    def setup(self, trace):
        # Cold pool: spawn, attach the panel, grow each worker's GEMM
        # workspace on the diagonal tiles (band=1 computes only those).
        stop_pools()
        self.setup_reports.append(self.engine(
            self.panel, _discard, trace, span="engine.setup_run", band=1,
            **self._kwargs(),
        ))

    def op(self, trace):
        collector = ThresholdCollector(self.threshold)
        sink = collector if trace is None else _traced_sink(trace, collector)
        report = self.engine(self.panel, sink, trace, **self._kwargs())
        return OpResult(
            cells=self.delivered_cells(report),
            failed=report.n_quarantined > 0 or not report.complete,
            report=report,
            info={"collector": collector},
        )

    def check(self, result):
        hits = result.info.pop("collector").pairs
        n = self.shape["n_snp"]
        rng = self.oracle_rng
        bad = 0
        if hits:
            arr = np.array(hits)
            pick = rng.choice(len(arr), size=min(256, len(arr)), replace=False)
            pairs = arr[pick, :2].astype(np.int64)
            bad += _mismatches(arr[pick, 2], ld_pairs(self.panel, pairs))
            hit_codes = arr[:, 0].astype(np.int64) * n + arr[:, 1].astype(np.int64)
        else:
            hit_codes = np.empty(0, dtype=np.int64)
        # Completeness: every sampled pair at or above the threshold is
        # collected and no pair below it is; near-diagonal pairs are where
        # the LD blocks put the hits.
        i = rng.integers(1, n, size=2048)
        near = rng.integers(1, 65, size=2048)
        j = np.where(np.arange(2048) < 1024, np.maximum(i - near, 0), rng.integers(0, n, 2048))
        keep = i > j
        pairs = np.stack([i[keep], j[keep]], axis=1)
        ref = ld_pairs(self.panel, pairs)
        clear = ~np.isclose(ref, self.threshold, rtol=0, atol=1e-9)
        expect = np.nan_to_num(ref, nan=-1.0) >= self.threshold
        present = np.isin(pairs[:, 0] * n + pairs[:, 1], hit_codes)
        bad += int(np.count_nonzero((expect != present) & clear))
        return bad

    def per_layer(self, ctx):
        return self.engine_layers(ctx)


class BandedOOC(EngineWorkload):
    """Distance band over a packed store read back under a memory budget."""

    name = "banded-ooc"
    executor = "serial"
    block_snps = 128
    band = 128

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        self.store_path = tmp / "panel.pnl"
        self.out_path = tmp / "band.npy"
        self.store = None

    def setup(self, trace):
        if self.store is not None:
            self.store.close()
        with _span(trace, "panelstore.pack"):
            packed = pack_panel(self.store_path, self.panel)
        packed.close()
        with _span(trace, "panelstore.open"):
            self.store = PanelStore.open(self.store_path)
        self.memory_budget = self.store.nbytes // 4

    def _run(self, sink, trace):
        return self.engine(
            self.store, sink, trace, engine=self.executor,
            block_snps=self.block_snps, band=self.band,
            memory_budget=self.memory_budget,
        )

    def op(self, trace):
        self.out_path.unlink(missing_ok=True)
        with BandedNpySink(self.out_path, self.shape["n_snp"], self.band) as sink:
            report = self._run(sink if trace is None else _traced_sink(trace, sink), trace)
        return OpResult(
            cells=report.band_pairs,
            failed=report.n_quarantined > 0 or not report.complete,
            report=report,
        )

    def check(self, result):
        n, w = self.shape["n_snp"], self.band
        values = np.load(self.out_path, mmap_mode="r")
        rng = self.oracle_rng
        j = rng.integers(0, n, size=512)
        d = rng.integers(0, w + 1, size=512)
        keep = j + d < n
        j, d = j[keep], d[keep]
        bad = _mismatches(
            np.asarray(values[j, d]),
            ld_pairs(self.panel, np.stack([j + d, j], axis=1)),
        )
        # Slots past the last SNP are never covered and stay NaN.
        tail = np.asarray(values[n - w :])
        beyond = (np.arange(n - w, n)[:, None] + np.arange(w + 1)[None, :]) >= n
        bad += int(np.count_nonzero(~np.isnan(tail[beyond])))
        del values
        return bad

    def warmup(self):
        """One job whose sink also checks out-of-band cells are NaN."""
        out_of_band = 0
        w = self.band

        def checking(i0, j0, block):
            nonlocal out_of_band
            rows = np.arange(i0, i0 + block.shape[0])[:, None]
            cols = np.arange(j0, j0 + block.shape[1])[None, :]
            out_of_band += int(np.count_nonzero(~np.isnan(block[rows - cols > w])))
            sink(i0, j0, block)

        self.out_path.unlink(missing_ok=True)
        with BandedNpySink(self.out_path, self.shape["n_snp"], w) as sink:
            report = self._run(checking, None)
        bad = out_of_band + self.check(OpResult(cells=report.band_pairs))
        return 1, int(bad > 0 or report.n_quarantined > 0)

    def bytes_written(self):
        return self.out_path.stat().st_size

    def close(self):
        if self.store is not None:
            self.store.close()
            self.store = None

    def per_layer(self, ctx):
        layers = self.engine_layers(ctx)
        spans = ctx.tracer.totals()
        pack = spans["panelstore.pack"]
        opened = spans["panelstore.open"]
        pack_s = pack["seconds"] / pack["count"]
        layers.update({
            "panelstore.pack_s": pack_s,
            "panelstore.pack_mb_per_s": self.store_path.stat().st_size / 2**20 / pack_s,
            "panelstore.open_s": opened["seconds"] / opened["count"],
        })
        return layers


def _discard(i0: int, j0: int, block: np.ndarray) -> None:
    """Sink for the set-up job: the diagonal tiles are not kept."""


def _traced_sink(trace: TraceContext, sink):
    def traced(i0, j0, block):
        with trace.span("streaming.deliver"):
            sink(i0, j0, block)

    flush = getattr(sink, "flush", None)
    if flush is not None:
        traced.flush = flush
    return traced


# ---------------------------------------------------------------------------
# Query workload
# ---------------------------------------------------------------------------

#: Query tile granularity: every region start and width is a multiple of
#: it, so repeated work can be counted exactly per tile.
QUERY_TILE = 64
CROSS_WIDTH = 256
MAX_WINDOW = 1024
#: Queries per cycle of the mix; one cycle is the unit of work whose
#: median wall time ``wall_s`` reports on ``region-queries``.
QUERY_CYCLE = 21
N_PAIRS = 2000
HOT_STARTS = 32
#: Queries whose repeated cells ``ldmatrix.repeat_cell_ratio`` counts —
#: a fixed prefix of the seed's stream, so the count is exact per seed.
REPEAT_PREFIX = 1000
#: Every Nth query is checked by the oracle.
CHECK_EVERY = 10


class QueryStream:
    """Deterministic query mix for one seed, issued in cycles.

    Each cycle of 21 queries holds one ``ld_matrix`` per window width
    128, 192, ..., 1024 SNPs (15, ~70%), four ``ld_cross`` between two
    256-SNP regions (~20%) and two ``ld_pairs`` on 2,000 random pairs
    (~10%), in a seed-shuffled order. Fixing the composition per cycle
    keeps the latency distribution the same across seeds; the seed
    picks the order, the regions and the pairs. Region starts come from
    a Zipf-weighted hot set 90% of the time, so later queries repeat
    earlier tiles.
    """

    def __init__(self, seed: int, n_snp: int) -> None:
        self.n_snp = n_snp
        self.rng = np.random.default_rng([seed, 2])
        t = QUERY_TILE
        slots = (n_snp - MAX_WINDOW) // t + 1
        self.hot = self.rng.choice(slots, size=min(HOT_STARTS, slots), replace=False) * t
        weights = 1.0 / np.arange(1, len(self.hot) + 1) ** 1.1
        self.hot_p = weights / weights.sum()
        self.cycle = (
            [("matrix", w) for w in range(2 * t, MAX_WINDOW + 1, t)]
            + [("cross",)] * 4
            + [("pairs",)] * 2
        )
        self.pending: list = []

    def _start(self, width: int) -> int:
        t = QUERY_TILE
        if self.rng.random() < 0.9:
            return int(self.rng.choice(self.hot, p=self.hot_p))
        return int(t * self.rng.integers(0, (self.n_snp - width) // t + 1))

    def next(self) -> tuple:
        if not self.pending:
            order = self.rng.permutation(len(self.cycle))
            self.pending = [self.cycle[i] for i in order]
        slot = self.pending.pop()
        if slot[0] == "matrix":
            width = slot[1]
            return ("matrix", self._start(width), width)
        if slot[0] == "cross":
            a = self._start(CROSS_WIDTH)
            for _ in range(16):
                b = self._start(CROSS_WIDTH)
                if abs(a - b) >= CROSS_WIDTH:
                    break
            else:
                b = a + CROSS_WIDTH if a + 2 * CROSS_WIDTH <= self.n_snp else a - CROSS_WIDTH
            return ("cross", a, b)
        i = self.rng.integers(0, self.n_snp, size=N_PAIRS)
        j = self.rng.integers(0, self.n_snp - 1, size=N_PAIRS)
        j = j + (j >= i)
        return ("pairs", np.stack([i, j], axis=1))


def repeat_cell_ratio(stream: QueryStream, n_queries: int) -> float:
    """Share of requested cells an earlier query already computed.

    Cells are unordered SNP pairs: ``w(w+1)/2`` for an ``ld_matrix``
    window, ``256²`` for a cross query, one per ``ld_pairs`` pair. Windows
    are tile-aligned, so a computed tile is all-or-nothing; single pairs
    are tracked per tile until their tile is computed.
    """
    t = QUERY_TILE
    tiles_done: set = set()
    loose: dict = {}
    requested = repeated = 0

    def tile(key, cells):
        nonlocal requested, repeated
        requested += cells
        if key in tiles_done:
            repeated += cells
        else:
            repeated += len(loose.pop(key, ()))
            tiles_done.add(key)

    for _ in range(n_queries):
        q = stream.next()
        if q[0] == "matrix":
            _, s, w = q
            for bi in range(s // t, (s + w) // t):
                for bj in range(s // t, bi + 1):
                    tile((bi, bj), t * (t + 1) // 2 if bi == bj else t * t)
        elif q[0] == "cross":
            hi, lo = max(q[1], q[2]), min(q[1], q[2])
            for bi in range(hi // t, (hi + CROSS_WIDTH) // t):
                for bj in range(lo // t, (lo + CROSS_WIDTH) // t):
                    tile((bi, bj), t * t)
        else:
            for i, j in q[1].tolist():
                i, j = max(i, j), min(i, j)
                key = (i // t, j // t)
                requested += 1
                if key in tiles_done or (i, j) in loose.get(key, ()):
                    repeated += 1
                else:
                    loose.setdefault(key, set()).add((i, j))
    return repeated / requested


class RegionQueries(Workload):
    """One closed-loop client issuing region queries against an in-RAM panel."""

    name = "region-queries"
    executor = "in-process"
    unit_ops = QUERY_CYCLE
    #: Each cold set-up thread leaves its allocator arena behind; timed
    #: after the loop, those arenas do not inflate the loop's peak RSS.
    setup_after_loop = True

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        self.restart()

    def restart(self):
        self.stream = QueryStream(self.seed, self.shape["n_snp"])
        self.n_issued = 0

    def run_query(self, q, trace):
        kind = q[0]
        if kind == "matrix":
            _, s, w = q
            with _span(trace, "ldmatrix.slice"):
                region = self.panel.slice_snps(s, s + w)
            with _span(trace, "ldmatrix.matrix"):
                r2 = ld_matrix(region)
            return r2, w * (w + 1) // 2, (w, w, region.n_words)
        if kind == "cross":
            _, a, b = q
            with _span(trace, "ldmatrix.slice"):
                left = self.panel.slice_snps(a, a + CROSS_WIDTH)
            with _span(trace, "ldmatrix.slice"):
                right = self.panel.slice_snps(b, b + CROSS_WIDTH)
            with _span(trace, "ldmatrix.cross"):
                r2 = ld_cross(left, right)
            return r2, CROSS_WIDTH * CROSS_WIDTH, (CROSS_WIDTH, CROSS_WIDTH, left.n_words)
        with _span(trace, "ldmatrix.pairs"):
            r2 = ld_pairs(self.panel, q[1])
        return r2, len(q[1]), None

    def setup(self, trace):
        """First queries of each kind on a thread with a cold workspace."""
        hot = self.stream.hot
        first = [
            ("matrix", int(hot[0]), MAX_WINDOW),
            ("cross", int(hot[0]), int(hot[0]) + CROSS_WIDTH),
            ("pairs", np.array([[1, 0], [2, 0]])),
        ]
        errors = []

        def cold():
            try:
                for q in first:
                    self.run_query(q, None)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        worker = threading.Thread(target=cold, name="cold-client")
        worker.start()
        worker.join()
        if errors:
            raise errors[0]

    def op(self, trace):
        q = self.stream.next()
        self.n_issued += 1
        r2, cells, shape = self.run_query(q, trace)
        return OpResult(
            cells=cells,
            info={"query": q, "r2": r2, "n": self.n_issued, "gemm": shape},
        )

    def check(self, result):
        q, r2, n = result.info.pop("query"), result.info.pop("r2"), result.info["n"]
        if n % CHECK_EVERY:
            return 0
        rng = self.oracle_rng
        if q[0] == "pairs":
            pick = rng.choice(len(q[1]), size=32, replace=False)
            return _mismatches(r2[pick], reference_r2(self.panel, q[1][pick]))
        rows = rng.integers(0, r2.shape[0], size=64)
        cols = rng.integers(0, r2.shape[1], size=64)
        if q[0] == "matrix":
            offset_r = offset_c = q[1]
        else:
            offset_r, offset_c = q[1], q[2]
        pairs = np.stack([rows + offset_r, cols + offset_c], axis=1)
        return _mismatches(r2[rows, cols], ld_pairs(self.panel, pairs))

    def warmup(self):
        warm = self.loop(0, max_ops=QUERY_CYCLE)
        self.restart()
        return warm.attempted, warm.failed

    def per_layer(self, ctx):
        k = ctx.n_ops
        spans = ctx.tracer.totals()
        lib = ctx.profiler.totals()
        gemm = lib.get("gemm", {"inclusive_seconds": 0.0, "count": 0})
        gemm_busy = gemm["inclusive_seconds"]
        shapes: dict = {}
        for r in ctx.loop.results:
            shape = r.info["gemm"] if r is not None else None
            if shape is not None:
                shapes[shape] = shapes.get(shape, 0) + 1

        def mean(name):
            entry = spans.get(name)
            return entry["seconds"] / entry["count"] if entry else 0.0

        stat_self = sum(
            spans.get(name, {"self_s": 0.0})["self_s"]
            for name in ("ldmatrix.matrix", "ldmatrix.cross")
        )
        return {
            "gemm.busy_s": gemm_busy / k,
            "gemm.words_per_s": _word_pairs(shapes) / gemm_busy if gemm_busy else 0.0,
            "gemm.pct_of_peak": _pct_of_peak(shapes, gemm_busy),
            "gemm.pack_s": sum(
                lib.get(p, {"seconds": 0.0})["seconds"] for p in ("pack_a", "pack_b")
            ) / k,
            "gemm.calls": gemm["count"] / k,
            "stats.busy_s": stat_self / k,
            **ZERO_ENGINE,
            **ZERO_PREFETCH,
            **ZERO_PANELSTORE,
            "streaming.deliver_s": 0.0,
            "streaming.bytes_written": 0,
            "streaming.write_mb_per_s": 0.0,
            "ldmatrix.slice_s": mean("ldmatrix.slice"),
            "ldmatrix.matrix_s": mean("ldmatrix.matrix"),
            "ldmatrix.cross_s": mean("ldmatrix.cross"),
            "ldmatrix.pairs_s": mean("ldmatrix.pairs"),
            "ldmatrix.repeat_cell_ratio": repeat_cell_ratio(
                QueryStream(self.seed, self.shape["n_snp"]),
                REPEAT_PREFIX,
            ),
        }


WORKLOADS = {w.name: w for w in (DenseWide, BandedOOC, RegionQueries)}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: set-up, warm-up, then the timed closed loop."""
    if not workload.setup_after_loop:
        setup_times = workload.timed_setup(None)
    warm_attempted, warm_failed = workload.warmup()
    loop = workload.loop(seconds)
    peak_rss = peak_rss_mib()
    if workload.setup_after_loop:
        setup_times = workload.timed_setup(None)
    attempted = loop.attempted + warm_attempted
    failed = loop.failed + warm_failed
    metrics, notes = workload.end_to_end(
        setup_times, loop, peak_rss, attempted, failed
    )
    return metrics, dict(notes, attempted=attempted, failed=failed)


def run_traced(workload: Workload, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from a traced pass, plus the tracing overhead.

    The same operations run twice: untraced for half the budget, then
    traced for the same number of operations, so the wall-time ratio of
    the two passes is the tracing overhead.
    """
    tracer = Tracer()
    setup_ctx = TraceContext(tracer, MetricsRecorder(), SpanProfiler(SPAN_CAPACITY))
    with profiling(setup_ctx.profiler):
        setup_times = workload.timed_setup(setup_ctx)
    warm_attempted, warm_failed = workload.warmup()
    plain = workload.loop(seconds / 2)
    workload.restart()
    ctx = TraceContext(tracer, MetricsRecorder(), SpanProfiler(SPAN_CAPACITY))
    with profiling(ctx.profiler):
        traced = workload.loop(0, trace=ctx, max_ops=plain.attempted)
    tracer.merge_profiler(setup_ctx.profiler)
    tracer.merge_profiler(ctx.profiler)
    tracer.compute_self_times()
    run = TracedRun(
        tracer=tracer,
        setup_profiler=setup_ctx.profiler,
        profiler=ctx.profiler,
        recorder=ctx.recorder,
        loop=traced,
        setup_times=setup_times,
    )
    metrics = workload.per_layer(run)
    metrics["observe.trace_overhead_frac"] = traced.busy_s / plain.busy_s - 1.0
    tracer.write(trace_path)
    attempted = plain.attempted + traced.attempted + warm_attempted
    failed = plain.failed + traced.failed + warm_failed
    notes = {
        "ops": traced.attempted,
        "spans": len(tracer.spans),
        "spans_dropped": tracer.n_dropped,
        "trace_file": str(trace_path),
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, notes
