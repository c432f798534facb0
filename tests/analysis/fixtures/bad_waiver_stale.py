"""Known-bad: a waiver on a line that trips no rule -- the code it once
audited changed, and the waiver must go with it."""

import numpy as np


def cut(store, key):
    return int(np.searchsorted(store, key))  # repro: allow[dtype-promotion] -- key was a float once
