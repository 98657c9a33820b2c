"""Self-check of span parentage, serially and under a thread pool.

    python3 perfbench/check_spans.py        (or: python3 -m pytest perfbench/check_spans.py)

On a nested call tree, each span's duration must equal its self time plus
the durations of its child spans, and each function's self time must be its
own sleep, whether the trees run one after another or concurrently on a
thread pool (as ``cli._parallel`` runs sweep rows).
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from spans import Tracer

SLEEP_S = {"parent": 0.02, "child_a": 0.03, "child_b": 0.01, "grandchild": 0.01}


def _tree(tracer: Tracer):
    def grandchild():
        time.sleep(SLEEP_S["grandchild"])

    def child_a():
        time.sleep(SLEEP_S["child_a"])

    def child_b():
        time.sleep(SLEEP_S["child_b"])
        tracer.call("grandchild", grandchild)

    def parent(_=None):
        time.sleep(SLEEP_S["parent"])
        tracer.call("child_a", child_a)
        tracer.call("child_b", child_b)

    return lambda x=None: tracer.call("parent", parent, x)


def _check(tracer: Tracer, trees: int) -> None:
    children = defaultdict(float)
    for _, parent, _, duration, _ in tracer.spans:
        if parent is not None:
            children[parent] += duration
    for span_id, _, name, duration, self_s in tracer.spans:
        if abs(duration - (self_s + children[span_id])) > 1e-9:
            raise AssertionError(f"{name}: {duration} != {self_s} + {children[span_id]}")
        # a sleep lasts at least its length; the 25 ms margin allows for
        # scheduling delays on a loaded machine
        if not SLEEP_S[name] <= self_s <= SLEEP_S[name] + 0.025:
            raise AssertionError(f"{name}: self time {self_s:.4f} s, slept {SLEEP_S[name]} s")
    for name in SLEEP_S:
        if tracer.get(name).calls != trees:
            raise AssertionError(f"{name}: {tracer.get(name).calls} calls, expected {trees}")


def test_parentage_serial():
    tracer = Tracer(keep_spans=True)
    tree = _tree(tracer)
    for _ in range(4):
        tree()
    _check(tracer, 4)


def test_parentage_thread_pool():
    tracer = Tracer(keep_spans=True)
    tree = _tree(tracer)
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(tree, range(8)))
    _check(tracer, 8)


if __name__ == "__main__":
    test_parentage_serial()
    test_parentage_thread_pool()
    print("span parentage: serial and thread-pool checks passed")
