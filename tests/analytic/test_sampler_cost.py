"""What one block of sampled states costs, counted instead of timed.

The samplers' speed is the per-block plumbing around one compiled
labelling call (DESIGN.md §10), and a shared runner's clock cannot gate
that; a count can. The number of function calls ``cProfile`` sees (Python
and built-in alike) is a pure function of the code and the shapes, so
each gate below names one piece of plumbing that must not come back:

* a block within ``components.SLOT_BUDGET`` link slots (every block of a
  sparse paper topology) is labelled by exactly one labelling call, no
  ``coo_matrix`` is ever built and the counts are binned with
  broadcasting (no ``numpy.tile``); a larger block is one such call per
  sub-block (``test_sampler_streaming.py``);
* on a sparse paper topology that call is the numpy union over runs of
  consecutive up sites (``components._union_runs``), not the flood, so
  the one scan of the draw is the ``flatnonzero`` that finds the run
  starts, once per block;
* nothing in such a block loops over states at Python level, and the
  union's rounds make no call: a 1 024-state block makes exactly the
  calls a 256-state block makes;
* on the complete graph each sub-block is one flood call
  (``components._flood_block``): one ``packbits`` of its bit matrix and
  one ``_flood`` per state, no union;
* a stratum's conditional draw is a table lookup per fallible component
  (``take``, ``less``, ``-=``), not a recomputation of the conditional
  law: at most 4 profiler-visible calls per component.

Everything is read off the profile; no scipy function is called.
"""

import cProfile
import pstats

import numpy as np

from repro.analytic.montecarlo import _chunk_counts
from repro.analytic.variance import (
    _conditional_failure_masks,
    _conditional_failure_table,
)
from repro.connectivity.components import sub_blocks
from repro.rng import as_generator
from repro.topology.generators import paper_topology


def profile(fn):
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def calls_named(stats, file_part, name):
    """Calls to functions called ``name`` defined in a file matching ``file_part``."""
    return sum(nc for (file, _, func), (_, nc, *_rest) in stats.stats.items()
               if func == name and file_part in file)


TOPOLOGY = paper_topology(16)


def block_profile(batch_size):
    topology = TOPOLOGY
    site_rel = np.full(topology.n_sites, 0.96)
    link_rel = np.full(topology.n_links, 0.96)
    run = lambda: _chunk_counts(  # noqa: E731
        topology, site_rel, link_rel, batch_size, as_generator(3))
    run()  # first-use imports and caches are not the block's cost
    return profile(run)


def test_one_block_is_one_labelling_call_on_a_direct_csr_graph():
    stats = block_profile(256)
    # The contracted path is labelled by the union, the flood not at all.
    assert calls_named(stats, "components.py", "_union_runs") == 1
    assert calls_named(stats, "components.py", "_flood_block") == 0
    assert calls_named(stats, "_coo.py", "__init__") == 0
    assert calls_named(stats, "numpy", "tile") == 0
    assert calls_named(stats, "", "flatnonzero") == 1


def test_a_complete_graph_sub_block_is_one_flood_per_state():
    topology = paper_topology(4949)
    site_rel = np.full(topology.n_sites, 0.96)
    link_rel = np.full(topology.n_links, 0.96)
    run = lambda: _chunk_counts(  # noqa: E731
        topology, site_rel, link_rel, 25, as_generator(3))
    run()
    stats = profile(run)
    assert sub_blocks(topology, 25) == [slice(0, 25)]
    assert calls_named(stats, "components.py", "_flood_block") == 1
    assert calls_named(stats, "components.py", "_flood") == 25
    assert calls_named(stats, "components.py", "_adjacency_rows") == 1
    assert calls_named(stats, "", "packbits") == 1
    assert calls_named(stats, "components.py", "_union_runs") == 0


def test_block_call_count_does_not_grow_with_batch_size():
    assert block_profile(1_024).total_calls == block_profile(256).total_calls


def test_conditional_draw_is_a_table_lookup_per_component():
    q = np.full(218, 0.04)  # topology 16 at p = r = 0.96: 101 sites + 117 links
    cond = _conditional_failure_table(q, 12)
    stats = profile(
        lambda: _conditional_failure_masks(cond, 9, 500, as_generator(5)))
    per_component = stats.total_calls / q.shape[0]
    assert per_component <= 4.0, f"{per_component:.2f} profiler calls per component"
