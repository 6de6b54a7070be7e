"""Property-based tests: plan resolution never silently downgrades.

For *any* axis combination, resolving against the engine table either

* returns an engine row that accepts the plan, with every
  caller-pinned axis preserved verbatim (only ``backend="auto"`` is
  concretised), or
* raises a structured :class:`UnsupportedPlanError` that names the offending
  axis, quotes the requested value, and carries a nearest supported
  alternative that itself resolves.

There is no third outcome — in particular no silent rewriting of workers,
reduction or statefulness to make a plan fit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CheckPlan, UnsupportedPlanError, resolve
from repro.engine.plan import BACKENDS, PLAN_AXES, REDUCTIONS, SHAPES, STORES

plan_axes = st.fixed_dictionaries(
    {
        "shape": st.sampled_from(SHAPES),
        "reduction": st.sampled_from(REDUCTIONS),
        "store": st.sampled_from(STORES),
        "backend": st.sampled_from(BACKENDS),
        "workers": st.integers(min_value=1, max_value=8),
        "stateful": st.booleans(),
    }
)


def build_plan(axes):
    """Construct a plan, funnelling construction-time rejections upward."""
    return CheckPlan(**axes)


@given(plan_axes)
@settings(max_examples=300)
def test_resolution_never_silently_downgrades(axes):
    try:
        plan = build_plan(axes)
    except UnsupportedPlanError as error:
        # Construction-time rejection (contradictory store/stateful): still
        # structured — axis named, alternative present.
        assert error.axis in PLAN_AXES
        assert error.alternative is not None
        return

    try:
        engine, resolved = resolve(plan)
    except UnsupportedPlanError as error:
        assert error.axis in PLAN_AXES
        assert error.axis in str(error)
        # The error quotes the value that was actually requested.
        assert error.value == plan.axes()[error.axis]
        # The nearest supported alternative is a runnable plan.
        assert isinstance(error.alternative, CheckPlan)
        alt_engine, alt_resolved = resolve(error.alternative)
        assert alt_engine.accepts(alt_resolved)
        return

    # Success: the engine genuinely accepts the plan...
    assert engine.accepts(resolved)
    # ...and every axis the caller pinned survived resolution verbatim;
    # only the "auto" backend may have been concretised.
    for axis, requested in plan.axes().items():
        if axis == "backend" and plan.backend == "auto":
            assert resolved.backend in ("serial", "frontier", "worksteal")
            continue
        assert resolved.axes()[axis] == requested


@given(plan_axes)
@settings(max_examples=200)
def test_resolution_is_deterministic(axes):
    try:
        plan = build_plan(axes)
    except UnsupportedPlanError:
        return
    try:
        first = resolve(plan)
    except UnsupportedPlanError as error:
        with_retry = None
        try:
            resolve(plan)
        except UnsupportedPlanError as second_error:
            with_retry = second_error
        assert with_retry is not None
        assert with_retry.axis == error.axis
        assert with_retry.alternative == error.alternative
        return
    second = resolve(plan)
    assert first[0] is second[0]
    assert first[1] == second[1]


@given(st.text(min_size=1, max_size=12))
@settings(max_examples=100)
def test_unknown_vocabulary_values_raise_structured_errors(value):
    for axis, vocabulary in (
        ("shape", SHAPES),
        ("reduction", REDUCTIONS),
        ("store", STORES),
        ("backend", BACKENDS),
    ):
        if value in vocabulary:
            continue
        try:
            CheckPlan(**{axis: value})
        except UnsupportedPlanError as error:
            assert error.axis == axis
            assert error.value == value
            assert error.alternative in vocabulary
        else:  # pragma: no cover - would be a validation hole
            raise AssertionError(f"{axis}={value!r} was accepted")
