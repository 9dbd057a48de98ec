"""Unit tests of the span aggregation (``python3 -m pytest perfbench``).

The end-to-end check of the benchmark itself, shard invariance
included, is ``python3 perfbench/golden.py --check``.
"""

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def span(span_id, parent, name, start, end, n=0, m=0):
    return (span_id, parent, name, start, end, 1, n, m)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0, "outer", 0, 100),
        span(2, 1, "inner", 10, 40),
        span(3, 1, "inner", 30, 50),  # overlaps its sibling (another process)
        span(4, 1, "inner", 90, 120),  # runs past its parent's end
    ]
    layers = tracing.summarize(spans)
    assert layers["outer"].self_ns == 100 - 40 - 10
    assert layers["inner"].calls == 3
    assert layers["inner"].total_ns == 30 + 20 + 30


def test_nested_spans_of_one_name_count_time_once():
    spans = [
        span(1, 0, "sim", 0, 100, n=2),
        span(2, 1, "other", 10, 90),
        span(3, 2, "sim", 20, 60, n=5),
    ]
    layers = tracing.summarize(spans)
    assert layers["sim"].total_ns == 100
    assert layers["sim"].calls == 2
    assert layers["sim"].n == 7


def test_wrapped_calls_record_parents_in_sync_and_async_code(tmp_path):
    recorder = tracing.SpanRecorder(tmp_path)

    class Layer:
        def inner(self, items):
            return len(items)

        def outer(self, items):
            return self.inner(items)

        async def publish(self):
            await asyncio.sleep(0)
            return self.inner([1])

    Layer.inner = tracing._wrap(recorder, Layer.inner, "inner", tracing._batch_records)
    Layer.outer = tracing._wrap(recorder, Layer.outer, "outer", None)
    Layer.publish = tracing._wrap(recorder, Layer.publish, "publish", None)
    layer = Layer()
    assert layer.outer([1, 2, 3]) == 3
    assert asyncio.run(layer.publish()) == 1
    by_name = {}
    for entry in recorder.collect():
        by_name.setdefault(entry[2], []).append(entry)
    outer, publish = by_name["outer"][0], by_name["publish"][0]
    parents = sorted(entry[1] for entry in by_name["inner"])
    assert parents == sorted([outer[0], publish[0]])
    assert outer[1] == publish[1] == 0
    assert sorted(entry[6] for entry in by_name["inner"]) == [1, 3]
