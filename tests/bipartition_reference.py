"""The per-split reference for ``cvwl.partitions.genuine_bounds``.

``genuine_bounds`` takes its minimum over subset sums of classes of equal
products.  The tests compare it with this direct sum over the two sides of
each (set_a, set_b) pair that ``cvwl.partitions.enumerate_bipartitions``
lists.
"""


def biseparable_bound(gains, split) -> float:
    """Sum-inequality bound 2 (|sum_A h g| + |sum_B h g|) implied by
    separability across the bipartition ``split = (set_a, set_b)``.  The
    product-inequality bound is half this value."""
    set_a, set_b = split
    products = gains.products()
    sum_a = products[sorted(set_a)].sum()
    sum_b = products[sorted(set_b)].sum()
    return 2.0 * (abs(float(sum_a)) + abs(float(sum_b)))
