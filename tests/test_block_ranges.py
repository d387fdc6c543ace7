"""``tensor.block_ranges``, the one rule that sizes every cache-blocked
loop: the GLU's sample chunks, the tap sum and the depthwise kernel
gradient, conv1x1's weight-gradient blocks, the pooling spread and the
blur. Each case of the table gives the ranges expected, and every case
must keep the rule's properties.
"""

import pytest

from atconv.tensor import BLOCK, block_ranges

# (n, size, budget, ranges)
CASES = (
    (0, 5, BLOCK, []),  # nothing to split
    (1, 1, BLOCK, [(0, 1)]),
    (20, 5, 100, [(0, 20)]),  # exactly one budget
    (21, 5, 100, [(0, 10), (10, 21)]),  # one item over it
    (10, 6, 20, [(0, 2), (2, 5), (5, 7), (7, 10)]),  # 3 fit a block: four blocks
    (2, BLOCK, BLOCK, [(0, 1), (1, 2)]),  # an item the size of the budget
    (3, BLOCK + 1, BLOCK, [(0, 1), (1, 2), (2, 3)]),  # an item larger than the budget
    # the acceptance config's GLU: 10 samples of 128 * 49 fit, 64 make 7 chunks
    (64, 128 * 49, BLOCK, [(0, 9), (9, 18), (18, 27), (27, 36), (36, 45), (45, 54), (54, 64)]),
    (64, 32 * 34, BLOCK, [(0, 32), (32, 64)]),  # analyze's tap sum at k = 3
    (69, 40 * 24, BLOCK, [(0, 34), (34, 69)]),  # 68 samples of conv1x1's gw fit
    (55, 30 * 20, 1 << 14, [(0, 18), (18, 36), (36, 55)]),  # a blur budget
)


@pytest.mark.parametrize("n, size, budget, ranges", CASES)
def test_block_ranges(n, size, budget, ranges):
    got = block_ranges(n, size, budget)
    assert got == ranges
    if n == 0:
        return
    # the ranges cover [0, n) in order, each with one item at least
    assert got[0][0] == 0 and got[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(got, got[1:]))
    lengths = [hi - lo for lo, hi in got]
    assert min(lengths) >= 1
    # near-equal, the last the longest
    assert max(lengths) - min(lengths) <= 1 and lengths[-1] == max(lengths)
    # each within the budget, or a single item; and the fewest that are:
    # one block less would hold more than the budget
    assert all(m * size <= budget or m == 1 for m in lengths)
    if len(got) > 1:
        assert -(-n // (len(got) - 1)) * size > budget
