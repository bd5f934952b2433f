"""Live float-count accounting for activations, stored representations,
gradient caches, and parameters.

The counting unit is floats, not bytes, so the numbers are precision
independent. Counts follow lifetimes deterministically, because CPython
frees an object the moment its last reference drops (the engine keeps
its object graph cycle-free on purpose). Every array is counted one
way, through ``register``: every op output, taped or not, arrays saved
in a forward's context, the gradients a tape's backward makes, kernel
buffers, the encoder passes' buffers (the cached step registers one per
encoder and phase; the encoder pass itself counts nothing) and the
trainers' own stores, caches and accumulators. ``register_array``
counts the array and makes one ``weakref.ref`` whose callback,
``_release_ref``, uncounts it when it is freed; the refs live in a dict
keyed by the ref's id (a ref hashes its referent, and arrays are
unhashable).

A counter is made visible to the engine by pushing it on a stack
(``use_meter``) and the innermost one is active: the multi-worker step
pushes each worker's counter over the run's. Named
phase windows let a trainer attribute peaks to individual stages of a
step, e.g. separate the per-sub-batch encoder peak from the loss-over-
representations peak. The module-level hooks ``register``, ``phase``
and ``begin_step`` are what the engine, the kernels and the trainers
call; each acts on the active counter and does nothing without one.
An activation budget that trips names the phase that was open.
"""

import weakref
from contextlib import contextmanager

CATEGORIES = (
    "activation",
    "representation-store",
    "gradient-cache",
    "parameters",
)


class MemAccountingError(RuntimeError):
    """Raised when a category would go below zero live floats."""


class BudgetExceededError(RuntimeError):
    """Raised when live activation floats exceed the configured budget."""


class MemCounter:
    """Per-category live float counts, high-water marks, and phase peaks."""

    def __init__(self, activation_budget=None):
        self.live = {c: 0 for c in CATEGORIES}
        self.peak = {c: 0 for c in CATEGORIES}
        self.phase_peaks = {}
        self.activation_budget = activation_budget
        self._phase = None

    def track_alloc(self, category, n_floats):
        if n_floats < 0:
            raise MemAccountingError(f"negative alloc of {n_floats} floats")
        live = self.live.get(category)
        if live is None:
            raise MemAccountingError(f"unknown category {category!r}")
        live += n_floats
        # checked before any count changes: the caller books nothing for
        # an array whose alloc raised
        if (category == "activation" and self.activation_budget is not None
                and live > self.activation_budget):
            where = (f"in phase {self._phase!r}" if self._phase is not None
                     else "outside any phase")
            raise BudgetExceededError(
                f"live activation floats {live} exceed "
                f"budget {self.activation_budget} {where}"
            )
        self.live[category] = live
        if live > self.peak[category]:
            self.peak[category] = live
        if self._phase is not None:
            peaks = self.phase_peaks[self._phase]
            if live > peaks[category]:
                peaks[category] = live

    def track_release(self, category, n_floats):
        live = self.live.get(category)
        if live is None:
            raise MemAccountingError(f"unknown category {category!r}")
        if n_floats > live:
            raise MemAccountingError(
                f"releasing {n_floats} floats from {category!r} with only "
                f"{live} live"
            )
        self.live[category] = live - n_floats

    def register_array(self, arr, category):
        """Count arr now and uncount it automatically when it is freed."""
        n = arr.size
        self.track_alloc(category, n)
        ref = weakref.ref(arr, _release_ref)
        _refs[id(ref)] = (ref, self, category, n)
        return arr

    @contextmanager
    def phase(self, name):
        """Attribute peaks inside the block to the named window."""
        if self._phase is not None:
            raise MemAccountingError(
                f"phase {name!r} opened inside phase {self._phase!r}"
            )
        if name not in self.phase_peaks:
            self.phase_peaks[name] = dict(self.live)
        else:
            peaks = self.phase_peaks[name]
            for c in CATEGORIES:
                peaks[c] = max(peaks[c], self.live[c])
        self._phase = name
        try:
            yield self
        finally:
            self._phase = None

    def begin_step(self):
        """Reset phase windows; global peaks and live counts persist."""
        self.phase_peaks = {}

    def phase_peak(self, name, category="activation"):
        if name not in self.phase_peaks:
            return 0
        return self.phase_peaks[name][category]

    def report(self):
        return {
            "live": dict(self.live),
            "peak": dict(self.peak),
            "phase_peaks": {k: dict(v) for k, v in self.phase_peaks.items()},
        }

    @contextmanager
    def activate(self):
        """Make this counter the active one inside the block."""
        with use_meter(self):
            yield self


# every array counted by register_array, keyed by the id of its weakref
_refs = {}


def _release_ref(ref):
    # the weakref callback: uncount the array that was just freed
    _, meter, category, n = _refs.pop(id(ref))
    meter.live[category] -= n


_meters = []


def current_meter():
    """The innermost active counter, or None."""
    return _meters[-1] if _meters else None


@contextmanager
def use_meter(meter):
    _meters.append(meter)
    try:
        yield meter
    finally:
        _meters.pop()


def register(arr, category="activation"):
    """Count arr under the active meter, if any, until it is freed."""
    if _meters:
        _meters[-1].register_array(arr, category)
    return arr


@contextmanager
def phase(name):
    """Attribute the active meter's peaks in this block to a window."""
    meter = current_meter()
    if meter is None:
        yield
    else:
        with meter.phase(name):
            yield


def begin_step():
    """Reset the active meter's phase windows, if there is a meter."""
    meter = current_meter()
    if meter is not None:
        meter.begin_step()

