"""Live float-count accounting for activations, stored representations,
gradient caches, and parameters.

The counting unit is floats, not bytes, so the numbers are precision
independent. Arrays are tracked by a ``weakref.ref`` with a release
callback, kept in a dict keyed by the ref's id (a ref hashes its
referent, and arrays are unhashable): CPython frees an array the moment
its last reference drops, so the live count follows actual lifetimes
deterministically (the engine keeps its object graph cycle-free on
purpose).

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
        self._refs = {}

    def track_alloc(self, category, n_floats):
        if n_floats < 0:
            raise MemAccountingError(f"negative alloc of {n_floats} floats")
        self._check_category(category)
        self.live[category] += n_floats
        if self.live[category] > self.peak[category]:
            self.peak[category] = self.live[category]
        if self._phase is not None:
            peaks = self.phase_peaks[self._phase]
            if self.live[category] > peaks[category]:
                peaks[category] = self.live[category]
        if (
            category == "activation"
            and self.activation_budget is not None
            and self.live[category] > self.activation_budget
        ):
            where = (f"in phase {self._phase!r}" if self._phase is not None
                     else "outside any phase")
            raise BudgetExceededError(
                f"live activation floats {self.live[category]} exceed "
                f"budget {self.activation_budget} {where}"
            )

    def track_release(self, category, n_floats):
        self._check_category(category)
        if n_floats > self.live[category]:
            raise MemAccountingError(
                f"releasing {n_floats} floats from {category!r} with only "
                f"{self.live[category]} live"
            )
        self.live[category] -= n_floats

    def register_array(self, arr, category):
        """Count arr now and uncount it automatically when it is freed."""
        n = int(arr.size)
        self.track_alloc(category, n)
        ref = weakref.ref(arr, self._release_ref)
        self._refs[id(ref)] = (ref, category, n)
        return arr

    def _release_ref(self, ref):
        _, category, n = self._refs.pop(id(ref))
        self.track_release(category, n)

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

    def _check_category(self, category):
        if category not in self.live:
            raise MemAccountingError(f"unknown category {category!r}")


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
    meter = current_meter()
    if meter is not None:
        meter.register_array(arr, category)
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

