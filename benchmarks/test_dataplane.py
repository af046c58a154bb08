"""Data-plane bake-off: shm rings + binary codec vs the pickle queues.

Same lowering, same process-pool backend, same worker count — the only
variable is the data plane moving sealed batches between workers.  The
pickle plane serializes each batch with ``pickle.dumps`` and copies the
bytes through a multiprocessing queue; the shm plane struct-packs the
batch into a shared-memory ring and ships a fixed-size descriptor
(docs/dataplane.md).  Word Count is the communication-heaviest app of
the suite (every sentence fans out into ten word tuples crossing the
splitter->counter edge), so it is where transport cost shows up first.

Three measurements, recorded together in ``BENCH_dataplane.json``:

* **codec** — round-trip serialization of real WC word batches, pickle
  vs columnar: per-batch latency and wire size.  The size advantage is
  structural and asserted unconditionally.
* **end-to-end** — the full engine on both planes: tuples/second, plus
  the codec byte counters each run reported.  Both planes must ingest
  the same events and deliver the identical sink multiset.
* **speedup** — end-to-end shm over pickle.  The floor (default 1.8x,
  overridable via ``REPRO_DATAPLANE_FLOOR`` — CI pins 1.0, i.e. "shm
  must never be slower") is only meaningful where transport can actually
  parallelize against operator work, so it is asserted when >= 2 cores
  are visible; a single-core host still reports the numbers but skips
  the floor.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter as Multiset
from time import perf_counter

import pytest

from repro.apps.workloads import sentences
from repro.dsps.engine import LocalEngine
from repro.dsps.tuples import StreamTuple
from repro.metrics import MetricsRegistry, format_table
from repro.runtime import BatchCodec, shm_available

from support import QUICK, bundle, write_result

EVENTS = 3_000 if QUICK else 12_000
WORKERS = 2
REPLICATION = {"spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1}
QUEUE_BUDGET = 4096
SPEEDUP_FLOOR = float(os.environ.get("REPRO_DATAPLANE_FLOOR", "1.8"))
CODEC_BATCH = 100
CODEC_ROUNDS = 300 if QUICK else 1_000


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _word_batch(n: int) -> list[StreamTuple]:
    """One sealed splitter->counter batch of real WC word tuples."""
    gen = sentences(seed=7)
    words: list[StreamTuple] = []
    while len(words) < n:
        (text,) = next(gen)
        words.extend(
            StreamTuple(values=(w,), source_task=2, event_time_ns=float(i))
            for i, w in enumerate(text.split())
        )
    return words[:n]


def _codec_stage() -> dict:
    batch = _word_batch(CODEC_BATCH)
    codec = BatchCodec({(2, 3): "s"})
    encoded = codec.encode((2, 3), batch)
    pickled = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)

    started = perf_counter()
    for _ in range(CODEC_ROUNDS):
        codec.decode(codec.encode((2, 3), batch))
    codec_s = perf_counter() - started
    started = perf_counter()
    for _ in range(CODEC_ROUNDS):
        pickle.loads(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
    pickle_s = perf_counter() - started

    return {
        "batch_tuples": CODEC_BATCH,
        "rounds": CODEC_ROUNDS,
        "columnar_bytes": len(encoded),
        "pickle_bytes": len(pickled),
        "size_ratio": len(pickled) / len(encoded),
        "columnar_roundtrip_us": codec_s / CODEC_ROUNDS * 1e6,
        "pickle_roundtrip_us": pickle_s / CODEC_ROUNDS * 1e6,
        "roundtrip_ratio": pickle_s / codec_s if codec_s > 0 else 0.0,
    }


def _timed(topology, dataplane, registry=None):
    engine = LocalEngine(
        topology,
        replication=REPLICATION,
        registry=registry,
        backend="process",
        n_workers=WORKERS,
        dataplane=dataplane,
        queue_budget=QUEUE_BUDGET,
    )
    started = perf_counter()
    result = engine.run(EVENTS)
    return perf_counter() - started, result


def _sink_multiset(result):
    return Multiset(
        tuple(item.values)
        for sinks in result.sinks.values()
        for sink in sinks
        for item in sink.samples
    )


def test_dataplane_throughput():
    if not shm_available():
        pytest.skip("no POSIX shared memory on this host")
    topology, _ = bundle("wc")
    topology.component("sink").template.keep_samples = 10**6
    cores = _cores()

    codec_stage = _codec_stage()
    # The wire-size advantage is structural: a columnar word batch must
    # be strictly smaller than the same batch pickled.
    assert codec_stage["columnar_bytes"] < codec_stage["pickle_bytes"]

    # Warm import/fork/allocation paths once per plane.
    _timed(topology, "pickle")
    _timed(topology, "shm")

    pickle_registry = MetricsRegistry()
    pickle_s, pickle_result = _timed(topology, "pickle", pickle_registry)
    shm_registry = MetricsRegistry()
    shm_s, shm_result = _timed(topology, "shm", shm_registry)

    # The data plane may only change how bytes move, never which tuples
    # arrive: identical ingestion and bit-identical sink state.
    assert shm_result.events_ingested == pickle_result.events_ingested
    assert shm_result.sink_received() == pickle_result.sink_received()
    assert _sink_multiset(shm_result) == _sink_multiset(pickle_result)

    pickle_counters = pickle_registry.snapshot()["counters"]
    shm_counters = shm_registry.snapshot()["counters"]
    assert pickle_counters["runtime.run.pickled_bytes"] > 0
    assert shm_counters["runtime.dataplane.bytes_inline"] > 0
    # WC's edges are scalar-only: the codec must not be falling back.
    assert shm_counters.get("runtime.dataplane.codec_fallbacks", 0) == 0

    tuples_delivered = pickle_result.sink_received()
    pickle_tps = tuples_delivered / pickle_s
    shm_tps = tuples_delivered / shm_s
    speedup = pickle_s / shm_s if shm_s > 0 else 0.0

    rows = [
        [
            "pickle",
            f"{pickle_s:.3f}",
            f"{pickle_tps:,.0f}",
            f"{pickle_counters['runtime.run.dataplane_bytes']:,.0f}",
            "1.00",
        ],
        [
            "shm",
            f"{shm_s:.3f}",
            f"{shm_tps:,.0f}",
            f"{shm_counters['runtime.run.dataplane_bytes']:,.0f}",
            f"{speedup:.2f}",
        ],
    ]
    text = format_table(
        ["dataplane", "wall s", "tuples/s", "bytes moved", "speedup"],
        rows,
        title=(
            f"Data plane — WC, {WORKERS} workers, {EVENTS} events, "
            f"{cores} core(s) visible; codec round-trip "
            f"{codec_stage['roundtrip_ratio']:.2f}x faster, wire "
            f"{codec_stage['size_ratio']:.2f}x smaller than pickle"
        ),
    )
    write_result(
        "BENCH_dataplane",
        text,
        data={
            "app": "wc",
            "events": EVENTS,
            "workers": WORKERS,
            "cores": cores,
            "codec": codec_stage,
            "pickle": {
                "wall_s": pickle_s,
                "tuples_per_s": pickle_tps,
                "pickled_bytes": pickle_counters["runtime.run.pickled_bytes"],
                "dataplane_bytes": pickle_counters["runtime.run.dataplane_bytes"],
            },
            "shm": {
                "wall_s": shm_s,
                "tuples_per_s": shm_tps,
                "bytes_inline": shm_counters["runtime.dataplane.bytes_inline"],
                "bytes_oob": shm_counters.get("runtime.dataplane.bytes_oob", 0),
                "ring_full_blocks": shm_counters.get(
                    "runtime.dataplane.ring_full_blocks", 0
                ),
                "codec_fallbacks": shm_counters.get(
                    "runtime.dataplane.codec_fallbacks", 0
                ),
                "pickled_bytes": shm_counters.get("runtime.run.pickled_bytes", 0),
                "dataplane_bytes": shm_counters["runtime.run.dataplane_bytes"],
            },
            "speedup": speedup,
        },
    )

    if cores >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"shm data plane speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
            f"on {cores} cores"
        )


# --------------------------------------------------------------------------
# Zipf string benchmark: raw-"s" vs dictionary-encoded columns
# --------------------------------------------------------------------------
#
# Streaming key distributions are heavily repetitive, so the dict codec
# replaces each repeated string with an int32 code and ships the string
# itself once per edge (docs/dataplane.md).  Three measurements, recorded
# together in ``BENCH_strings.json``:
#
# * **codec** — raw vs dict pack/unpack of Zipf(1.1)-distributed
#   entity-id words: bytes/tuple and round-trip us/tuple.  The byte cut
#   is structural (>= 2x on this workload) and asserted unconditionally.
# * **counter stage** — the consumer-side hot path (columnar decode ->
#   Counter kernel -> re-encode): dict hands the kernel a zero-copy code
#   array and ``np.bincount`` replaces ``np.unique`` on strings.
# * **end-to-end** — quick WC over the shm plane on the Zipf vocabulary,
#   ``string_dict`` off vs auto, vectorized+fused on.  Total dataplane
#   bytes must shrink >= REPRO_STRINGS_BYTES_FLOOR (default 1.3x).  The
#   wall-clock speedup floor (``REPRO_STRINGS_FLOOR``, asserted when
#   >= 2 cores are visible) defaults to 0.9 — "dict must never
#   materially slow the pipeline" — because on a single shared-memory
#   box the per-tuple executor overhead, not transport, bounds
#   throughput; the byte counters carry the scaling claim the paper
#   makes about cross-socket bandwidth.

ZIPF_VOCAB = 1_000
ZIPF_EXPONENT = 1.1
ZIPF_EVENTS = 1_500 if QUICK else 6_000
STRINGS_FLOOR = float(os.environ.get("REPRO_STRINGS_FLOOR", "0.9"))
STRINGS_BYTES_FLOOR = float(os.environ.get("REPRO_STRINGS_BYTES_FLOOR", "1.3"))


def _zipf_vocab() -> list[str]:
    """Entity-id style words (~21 chars): realistic string keys, long
    enough that the 4-byte code is a material cut per occurrence."""
    import random

    rng = random.Random(99)
    return [
        f"entity-{i:05d}-{rng.getrandbits(32):08x}" for i in range(ZIPF_VOCAB)
    ]


def _zipf_stream(n: int, seed: int = 7) -> list[str]:
    """n words drawn Zipf(1.1) over the vocabulary (numpy inverse-cdf)."""
    import numpy as np

    weights = 1.0 / np.arange(1, ZIPF_VOCAB + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    vocab = np.array(_zipf_vocab())
    rng = np.random.default_rng(seed)
    return vocab[np.searchsorted(cdf, rng.random(n))].tolist()


def _zipf_word_tuples(words: list[str]) -> list[list[StreamTuple]]:
    return [
        [
            StreamTuple(values=(w,), source_task=2, event_time_ns=float(i))
            for i, w in enumerate(words[j : j + CODEC_BATCH])
        ]
        for j in range(0, len(words), CODEC_BATCH)
    ]


def _strings_codec_stage(words: list[str]) -> dict:
    """Raw vs dict pack/unpack over the same Zipf word stream."""
    batches = _zipf_word_tuples(words)
    out = {}
    for label, mode in (("raw", "off"), ("dict", "on")):
        encoder = BatchCodec({(2, 3): "s"}, string_dict=mode)
        decoder = BatchCodec({(2, 3): "s"})
        total_bytes = 0
        started = perf_counter()
        for batch in batches:
            payload = encoder.encode((2, 3), batch)
            total_bytes += len(payload)
            decoder.decode(payload, edge=(2, 3))
        elapsed = perf_counter() - started
        out[label] = {
            "bytes_per_tuple": total_bytes / len(words),
            "roundtrip_us": elapsed / len(words) * 1e6,
            "fallbacks": encoder.fallback_batches,
        }
    out["bytes_ratio"] = (
        out["raw"]["bytes_per_tuple"] / out["dict"]["bytes_per_tuple"]
    )
    out["roundtrip_ratio"] = (
        out["raw"]["roundtrip_us"] / out["dict"]["roundtrip_us"]
    )
    return out


def _strings_kernel_stage(words: list[str]) -> dict:
    """Consumer hot path: columnar decode -> Counter kernel -> encode."""
    from repro.apps.wordcount import Counter
    from repro.runtime.dataplane import ColumnBatch

    batches = [
        ColumnBatch.from_tuples(batch) for batch in _zipf_word_tuples(words)
    ]
    out = {}
    for label, mode in (("raw", "off"), ("dict", "on")):
        producer = BatchCodec({(2, 3): "s", (3, 4): "sq"}, string_dict=mode)
        consumer = BatchCodec({(2, 3): "s", (3, 4): "sq"}, string_dict=mode)
        payloads = [producer.encode_columns((2, 3), b) for b in batches]
        counter = Counter()
        started = perf_counter()
        for payload in payloads:
            batch = consumer.decode_columns(payload, edge=(2, 3))
            (result,) = counter.process_columns(batch)
            result.stamp_from(batch, source_task=3)
            consumer.encode_columns((3, 4), result)
        elapsed = perf_counter() - started
        out[label] = {"stage_us": elapsed / len(words) * 1e6}
    out["stage_ratio"] = out["raw"]["stage_us"] / out["dict"]["stage_us"]
    return out


def _zipf_topology():
    """WC over the Zipf entity-id vocabulary (spout fast enough that
    sentence generation is never the pipeline bottleneck)."""
    import numpy as np

    from repro.apps.wordcount import (
        Counter,
        Parser,
        SentenceSpout,
        Splitter,
        WordCountSink,
    )
    from repro.dsps.topology import TopologyBuilder

    words_per_sentence = 10

    class ZipfSentenceSpout(SentenceSpout):
        def _generate(self, seed):
            weights = 1.0 / np.arange(1, ZIPF_VOCAB + 1) ** ZIPF_EXPONENT
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            vocab = np.array(_zipf_vocab())
            rng = np.random.default_rng(seed)
            block = 256 * words_per_sentence
            while True:
                draws = vocab[np.searchsorted(cdf, rng.random(block))]
                for j in range(0, block, words_per_sentence):
                    yield (" ".join(draws[j : j + words_per_sentence]),)

        def prepare(self, context):
            self._source = self._generate(self.seed + context.replica_index)

        def next_batch(self, max_tuples):
            if self._source is None:
                self._source = self._generate(self.seed)
            for _ in range(max_tuples):
                yield next(self._source)

    builder = TopologyBuilder("wc_zipf")
    builder.set_spout("spout", ZipfSentenceSpout(seed=7))
    builder.add_operator("parser", Parser()).shuffle_from("spout")
    builder.add_operator("splitter", Splitter()).shuffle_from("parser")
    builder.add_operator("counter", Counter()).fields_from("splitter", 0)
    builder.add_sink("sink", WordCountSink()).shuffle_from("counter")
    return builder.build()


def _timed_strings(string_dict, registry=None):
    engine = LocalEngine(
        _zipf_topology(),
        replication=REPLICATION,
        registry=registry,
        backend="process",
        n_workers=WORKERS,
        dataplane="shm",
        fuse="auto",
        string_dict=string_dict,
        queue_budget=QUEUE_BUDGET,
    )
    started = perf_counter()
    result = engine.run(ZIPF_EVENTS)
    return perf_counter() - started, result


def test_zipf_strings_dict_vs_raw():
    if not shm_available():
        pytest.skip("no POSIX shared memory on this host")
    cores = _cores()
    words = _zipf_stream(CODEC_BATCH * CODEC_ROUNDS)

    codec_stage = _strings_codec_stage(words)
    kernel_stage = _strings_kernel_stage(words)
    # The byte cut is structural on a Zipfian stream of ~21-char keys:
    # 4-byte codes + a one-shot table page vs a length+blob per
    # occurrence.  No fallbacks allowed on either path.
    assert codec_stage["bytes_ratio"] >= 2.0, codec_stage
    assert codec_stage["raw"]["fallbacks"] == 0
    assert codec_stage["dict"]["fallbacks"] == 0

    # Warm import/fork/allocation paths once per mode.
    _timed_strings("off")
    _timed_strings("auto")

    raw_registry = MetricsRegistry()
    raw_s, raw_result = _timed_strings("off", raw_registry)
    dict_registry = MetricsRegistry()
    dict_s, dict_result = _timed_strings("auto", dict_registry)

    # Encoding choice may only change how bytes move, never which tuples
    # arrive.
    assert dict_result.events_ingested == raw_result.events_ingested
    assert dict_result.sink_received() == raw_result.sink_received()
    assert _sink_multiset(dict_result) == _sink_multiset(raw_result)

    raw_counters = raw_registry.snapshot()["counters"]
    dict_counters = dict_registry.snapshot()["counters"]
    raw_bytes = raw_counters["runtime.run.dataplane_bytes"]
    dict_bytes = dict_counters["runtime.run.dataplane_bytes"]
    bytes_ratio = raw_bytes / dict_bytes if dict_bytes else 0.0
    assert dict_counters["runtime.dataplane.dict.promotions"] >= 1
    assert dict_counters.get("runtime.dataplane.codec_fallbacks", 0) == 0
    # Auto mode must reject the all-distinct sentence column (pages for
    # it would *inflate* the wire) and still cut total plane bytes.
    assert bytes_ratio >= STRINGS_BYTES_FLOOR, (
        f"dict cut dataplane bytes only {bytes_ratio:.2f}x "
        f"(raw {raw_bytes:,.0f} -> dict {dict_bytes:,.0f})"
    )

    tuples_delivered = raw_result.sink_received()
    raw_tps = tuples_delivered / raw_s
    dict_tps = tuples_delivered / dict_s
    speedup = raw_s / dict_s if dict_s > 0 else 0.0

    rows = [
        [
            "codec raw",
            f"{codec_stage['raw']['bytes_per_tuple']:.1f}",
            f"{codec_stage['raw']['roundtrip_us']:.3f}",
            "-",
            "1.00",
        ],
        [
            "codec dict",
            f"{codec_stage['dict']['bytes_per_tuple']:.1f}",
            f"{codec_stage['dict']['roundtrip_us']:.3f}",
            "-",
            f"{codec_stage['bytes_ratio']:.2f} (bytes)",
        ],
        [
            "e2e raw",
            f"{raw_bytes:,.0f}",
            f"{raw_s:.3f}s",
            f"{raw_tps:,.0f}",
            "1.00",
        ],
        [
            "e2e dict",
            f"{dict_bytes:,.0f}",
            f"{dict_s:.3f}s",
            f"{dict_tps:,.0f}",
            f"{speedup:.2f}",
        ],
    ]
    text = format_table(
        ["path", "bytes", "time", "tuples/s", "ratio"],
        rows,
        title=(
            f"Zipf({ZIPF_EXPONENT}) strings — WC, {WORKERS} workers, "
            f"{ZIPF_EVENTS} events, {cores} core(s); dict wire "
            f"{codec_stage['bytes_ratio']:.2f}x smaller/tuple, counter "
            f"stage {kernel_stage['stage_ratio']:.2f}x faster, e2e bytes "
            f"{bytes_ratio:.2f}x smaller"
        ),
    )
    write_result(
        "BENCH_strings",
        text,
        data={
            "app": "wc_zipf",
            "events": ZIPF_EVENTS,
            "workers": WORKERS,
            "cores": cores,
            "vocab": ZIPF_VOCAB,
            "zipf_exponent": ZIPF_EXPONENT,
            "codec": codec_stage,
            "counter_stage": kernel_stage,
            "raw": {
                "wall_s": raw_s,
                "tuples_per_s": raw_tps,
                "dataplane_bytes": raw_bytes,
            },
            "dict": {
                "wall_s": dict_s,
                "tuples_per_s": dict_tps,
                "dataplane_bytes": dict_bytes,
                "dict_bytes": dict_counters.get(
                    "runtime.dataplane.dict.bytes", 0
                ),
                "dict_pages": dict_counters.get(
                    "runtime.dataplane.dict.pages", 0
                ),
                "promotions": dict_counters.get(
                    "runtime.dataplane.dict.promotions", 0
                ),
            },
            "bytes_ratio": bytes_ratio,
            "speedup": speedup,
        },
    )

    if cores >= 2:
        assert speedup >= STRINGS_FLOOR, (
            f"dict end-to-end speedup {speedup:.2f}x below "
            f"{STRINGS_FLOOR}x on {cores} cores"
        )
