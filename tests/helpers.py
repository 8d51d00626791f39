"""Helpers shared by the test modules (not collected as tests)."""


def randomize(store, rng, scale):
    """Overwrite every parameter of ``store``, in store order, with N(0, scale^2) draws."""
    for _, tensor in store.items():
        tensor.data = rng.normal(scale=scale, size=tensor.data.shape)
