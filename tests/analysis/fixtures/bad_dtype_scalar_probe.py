"""Known-bad: a store probe that takes a float bound as it came, with
no normalised key (``storage.dtypes.normalise_range``) in between."""


def scalar_cut(store, bound: float) -> int:
    if bound != bound:
        return len(store)
    return int(store.searchsorted(bound))
