"""The k-FP feature set (Hayes & Danezis, USENIX Security 2016).

k-FP summarises a packet trace — timestamps, directions and sizes —
into a fixed-length vector of interpretable statistics.  The groups
below follow the reference implementation's feature families:

* packet counts and direction fractions,
* inter-arrival time statistics per direction,
* transmission-time quantiles per direction,
* packet-ordering statistics (position of outgoing/incoming packets),
* concentration of outgoing packets over fixed-size windows,
* packets-per-second statistics,
* first/last-30-packet composition,
* burst statistics (runs of same-direction packets),
* size/volume statistics (the TLS-traffic analogue of Tor cell
  counts, used because the paper attacks direct HTTPS traffic).

Every feature has a stable name (see :meth:`KfpFeatureExtractor.names`)
so experiments can report feature importances.  Empty or degenerate
traces yield zero-filled vectors rather than NaNs, keeping downstream
classifiers total.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.capture.trace import IN, OUT, Trace, ensure_finite

#: Window sizes for the two concentration feature families.
CONCENTRATION_CHUNK = 20
ALT_CONCENTRATION_CHUNK = 70
#: How many leading/trailing packets the composition features examine.
EDGE_PACKETS = 30
#: Number of evenly spaced samples kept from the per-chunk and
#: per-second series (k-FP's "alternative" features).
SERIES_SAMPLES = 20


def _stats(values: np.ndarray, prefix: str, names: List[str]) -> List[float]:
    """max/mean/std/quantiles block used by several families."""
    names.extend(
        [
            f"{prefix}_max",
            f"{prefix}_mean",
            f"{prefix}_std",
            f"{prefix}_q75",
        ]
    )
    if len(values) == 0:
        return [0.0, 0.0, 0.0, 0.0]
    return [
        float(np.max(values)),
        float(np.mean(values)),
        float(np.std(values)),
        float(np.percentile(values, 75)),
    ]


def _quantiles(values: np.ndarray, prefix: str, names: List[str]) -> List[float]:
    """25/50/75/100 transmission-time quantiles."""
    names.extend([f"{prefix}_q25", f"{prefix}_q50", f"{prefix}_q75", f"{prefix}_q100"])
    if len(values) == 0:
        return [0.0, 0.0, 0.0, 0.0]
    return [
        float(np.percentile(values, 25)),
        float(np.percentile(values, 50)),
        float(np.percentile(values, 75)),
        float(np.max(values)),
    ]


def _sampled_series(series: np.ndarray, n: int) -> np.ndarray:
    """Exactly ``n`` evenly spaced samples (zero-padded when short)."""
    out = np.zeros(n)
    if len(series) == 0:
        return out
    idx = np.linspace(0, len(series) - 1, n).astype(int)
    return series[idx].astype(np.float64)


class KfpFeatureExtractor:
    """Extracts the k-FP vector from a :class:`Trace`."""

    #: Cache identity: bump ``version`` whenever the feature definition
    #: changes, so stale cached feature matrices invalidate.
    name = "kfp"
    version = 1

    def __init__(self) -> None:
        self._names: List[str] = []
        self._names_final = False

    def names(self) -> List[str]:
        """Stable feature names, index-aligned with the vectors."""
        if not self._names_final:
            # Built on first use, by extracting from a tiny dummy trace:
            # experiments construct an extractor per evaluated cell, and
            # a warm cached run needs none of them to extract anything.
            dummy = Trace(
                np.array([0.0, 0.01]),
                np.array([OUT, IN], dtype=np.int8),
                np.array([100, 1500]),
            )
            self._extract(dummy)
            self._names_final = True
        return list(self._names)

    @property
    def n_features(self) -> int:
        return len(self.names())

    def extract(self, trace: Trace) -> np.ndarray:
        """The k-FP feature vector of one trace.

        Degenerate traces are total: zero-length, single-packet and
        all-one-direction traces yield finite vectors (absent feature
        families report 0.0).  A trace with non-finite timestamps —
        only reachable by mutating arrays after construction — raises
        :class:`repro.errors.TraceError` rather than emitting NaNs.
        """
        ensure_finite(trace, "kfp")
        return np.asarray(self._extract(trace), dtype=np.float64)

    def extract_many(self, traces: Sequence[Trace], workers: int = 1) -> np.ndarray:
        """Feature matrix, one row per trace.

        ``workers > 1`` splits the batch into contiguous chunks over a
        shared process pool (``0`` = one worker per core).  Each row is
        a pure function of its trace, so the matrix is bit-identical
        for any worker count; ``workers=1`` stays in-process.
        """
        from repro.parallel import (
            chunked,
            default_chunk_size,
            resolve_workers,
            shared_pool,
        )

        if len(traces) == 0:
            return np.empty((0, self.n_features), dtype=np.float64)
        workers = resolve_workers(workers)
        if workers <= 1 or len(traces) <= 1:
            return np.vstack([self.extract(t) for t in traces])
        chunks = chunked(list(traces), default_chunk_size(len(traces), workers))
        parts = shared_pool(workers).map(_extract_feature_chunk, chunks)
        return np.vstack(list(parts))

    # -- the actual feature computation ------------------------------------------

    def _extract(self, trace: Trace) -> List[float]:
        names: List[str] = []
        feats: List[float] = []
        times = trace.times - (trace.times[0] if len(trace) else 0.0)
        dirs = trace.directions
        sizes = trace.sizes.astype(np.float64)
        n = len(trace)
        in_mask = dirs == IN
        out_mask = dirs == OUT
        n_in = int(in_mask.sum())
        n_out = int(out_mask.sum())

        # --- counts -------------------------------------------------------
        names += ["count_total", "count_in", "count_out", "frac_in", "frac_out"]
        feats += [
            float(n),
            float(n_in),
            float(n_out),
            n_in / n if n else 0.0,
            n_out / n if n else 0.0,
        ]

        # --- inter-arrival times -------------------------------------------
        iat_all = np.diff(times) if n >= 2 else np.empty(0)
        iat_in = np.diff(times[in_mask]) if n_in >= 2 else np.empty(0)
        iat_out = np.diff(times[out_mask]) if n_out >= 2 else np.empty(0)
        feats += _stats(iat_all, "iat_all", names)
        feats += _stats(iat_in, "iat_in", names)
        feats += _stats(iat_out, "iat_out", names)

        # --- transmission-time quantiles -----------------------------------
        feats += _quantiles(times, "ttime_all", names)
        feats += _quantiles(times[in_mask], "ttime_in", names)
        feats += _quantiles(times[out_mask], "ttime_out", names)

        # --- packet ordering -------------------------------------------------
        positions = np.arange(n, dtype=np.float64)
        for mask, label in ((out_mask, "order_out"), (in_mask, "order_in")):
            pos = positions[mask]
            names += [f"{label}_mean", f"{label}_std"]
            if len(pos):
                feats += [float(pos.mean()), float(pos.std())]
            else:
                feats += [0.0, 0.0]

        # --- concentration of outgoing packets ------------------------------
        out_binary = (dirs == OUT).astype(np.float64)
        chunks = [
            out_binary[i : i + CONCENTRATION_CHUNK].sum()
            for i in range(0, n, CONCENTRATION_CHUNK)
        ]
        conc = np.asarray(chunks, dtype=np.float64)
        names += [
            "conc_mean",
            "conc_std",
            "conc_min",
            "conc_max",
            "conc_median",
            "conc_q70",
            "conc_q80",
            "conc_q90",
            "conc_sum",
        ]
        if len(conc):
            feats += [
                float(conc.mean()),
                float(conc.std()),
                float(conc.min()),
                float(conc.max()),
                float(np.median(conc)),
                float(np.percentile(conc, 70)),
                float(np.percentile(conc, 80)),
                float(np.percentile(conc, 90)),
                float(conc.sum()),
            ]
        else:
            feats += [0.0] * 9
        sampled = _sampled_series(conc, SERIES_SAMPLES)
        names += [f"conc_sample_{i}" for i in range(SERIES_SAMPLES)]
        feats += sampled.tolist()

        # --- alternative concentration (larger windows) -----------------------
        alt_chunks = [
            out_binary[i : i + ALT_CONCENTRATION_CHUNK].sum()
            for i in range(0, n, ALT_CONCENTRATION_CHUNK)
        ]
        alt = _sampled_series(np.asarray(alt_chunks), SERIES_SAMPLES)
        names += [f"altconc_sample_{i}" for i in range(SERIES_SAMPLES)]
        feats += alt.tolist()

        # --- packets per second ------------------------------------------------
        if n >= 2 and times[-1] > 0:
            seconds = np.floor(times).astype(np.int64)
            pps = np.bincount(seconds - seconds[0])
        else:
            pps = np.asarray([n], dtype=np.int64)
        pps = pps.astype(np.float64)
        names += ["pps_mean", "pps_std", "pps_min", "pps_max", "pps_median"]
        feats += [
            float(pps.mean()),
            float(pps.std()),
            float(pps.min()),
            float(pps.max()),
            float(np.median(pps)),
        ]
        pps_sampled = _sampled_series(pps, SERIES_SAMPLES)
        names += [f"pps_sample_{i}" for i in range(SERIES_SAMPLES)]
        feats += pps_sampled.tolist()

        # --- first/last 30 packets --------------------------------------------
        head = dirs[:EDGE_PACKETS]
        tail = dirs[-EDGE_PACKETS:] if n else dirs[:0]
        names += ["first30_in", "first30_out", "last30_in", "last30_out"]
        feats += [
            float((head == IN).sum()),
            float((head == OUT).sum()),
            float((tail == IN).sum()),
            float((tail == OUT).sum()),
        ]

        # --- bursts (runs of same-direction packets) ---------------------------
        feats += self._burst_features(dirs, names)

        # --- sizes / volume ------------------------------------------------------
        names += [
            "bytes_total",
            "bytes_in",
            "bytes_out",
            "size_mean",
            "size_std",
            "size_in_mean",
            "size_in_std",
            "size_out_mean",
            "size_out_std",
            "size_unique",
            "size_max",
        ]
        if n:
            feats += [
                float(sizes.sum()),
                float(sizes[in_mask].sum()),
                float(sizes[out_mask].sum()),
                float(sizes.mean()),
                float(sizes.std()),
                float(sizes[in_mask].mean()) if n_in else 0.0,
                float(sizes[in_mask].std()) if n_in else 0.0,
                float(sizes[out_mask].mean()) if n_out else 0.0,
                float(sizes[out_mask].std()) if n_out else 0.0,
                float(len(np.unique(sizes))),
                float(sizes.max()),
            ]
        else:
            feats += [0.0] * 11

        # --- total duration ------------------------------------------------------
        names += ["duration"]
        feats += [float(times[-1]) if n else 0.0]

        if not self._names_final:
            self._names = names
        return feats

    @staticmethod
    def _burst_features(dirs: np.ndarray, names: List[str]) -> List[float]:
        """Statistics of maximal same-direction runs (k-FP bursts)."""
        names.extend(
            [
                "burst_count_in",
                "burst_len_in_mean",
                "burst_len_in_max",
                "burst_len_in_gt5",
                "burst_len_in_gt10",
                "burst_len_in_gt20",
                "burst_count_out",
                "burst_len_out_mean",
                "burst_len_out_max",
                "burst_len_out_gt5",
                "burst_len_out_gt10",
                "burst_len_out_gt20",
            ]
        )
        if len(dirs) == 0:
            return [0.0] * 12
        change = np.nonzero(np.diff(dirs))[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [len(dirs)]])
        lengths = (ends - starts).astype(np.float64)
        run_dirs = dirs[starts]
        out: List[float] = []
        for direction in (IN, OUT):
            runs = lengths[run_dirs == direction]
            if len(runs):
                out += [
                    float(len(runs)),
                    float(runs.mean()),
                    float(runs.max()),
                    float((runs > 5).sum()),
                    float((runs > 10).sum()),
                    float((runs > 20).sum()),
                ]
            else:
                out += [0.0] * 6
        return out


_DEFAULT_EXTRACTOR: KfpFeatureExtractor = None


def _default_extractor() -> KfpFeatureExtractor:
    """The lazily built per-process extractor (also used by pool
    workers, which each get their own copy after fork/spawn)."""
    global _DEFAULT_EXTRACTOR
    if _DEFAULT_EXTRACTOR is None:
        _DEFAULT_EXTRACTOR = KfpFeatureExtractor()
    return _DEFAULT_EXTRACTOR


def _extract_feature_chunk(traces: Sequence[Trace]) -> np.ndarray:
    """Pool-worker task: the feature rows of one chunk of traces."""
    return _default_extractor().extract_many(traces)


def extract_features(trace: Trace) -> np.ndarray:
    """Module-level convenience wrapper around a shared extractor."""
    return _default_extractor().extract(trace)


def extract_features_batch(traces: Sequence[Trace], workers: int = 1) -> np.ndarray:
    """Batch counterpart of :func:`extract_features`: the feature
    matrix of ``traces``, optionally fanned out over ``workers``
    processes (bit-identical for any worker count)."""
    return _default_extractor().extract_many(traces, workers=workers)
