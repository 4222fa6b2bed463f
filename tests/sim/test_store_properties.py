"""Property tests: Store against a plain deque model."""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.stores import Store

# Operation stream: ("put", value) | ("get",)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers()),
        st.tuples(st.just("get")),
    ),
    max_size=80,
)


class TestStoreModel:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_unbounded_store_behaves_like_a_deque(self, ops):
        sim = Simulator(seed=1)
        store = Store(sim)
        model = collections.deque()
        got = []
        waiting = False
        for op in ops:
            if op[0] == "put":
                store.put(op[1])
                model.append(op[1])
            elif not waiting:
                store.get(got.append)
                waiting = True
            sim.run()
            if waiting and model:
                # The waiting consumer took the oldest item, in one hop.
                assert got == [model.popleft()]
                got.clear()
                waiting = False
            assert got == []
            assert len(store) == len(model)
