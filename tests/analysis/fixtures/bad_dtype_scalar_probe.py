"""Known-bad: a look-alike of ``storage.updates._exact_scalar_cut``
under a name the rule does not sanction -- the float bound reaches the
store as it came, with no exact key in between."""


def scalar_cut(store, bound: float) -> int:
    if bound != bound:
        return len(store)
    return int(store.searchsorted(bound))
