"""The public API's defaulted parameters: each one is a choice that some
caller makes, never a tolerance or method that only ever takes one value
(those are named module constants)."""

import dataclasses
import importlib
import inspect

MODULES = ("linalg4", "complex_structures", "geometry", "twistor",
           "surface_expr", "catalog")

ALLOWED = {
    # a record of the seed that built a frame; None for a caller's seed
    "geometry.Frame.seed_branch",
    # a record of which stereographic chart a value is in
    "twistor.ChartValue.antipode",
    # the acceptance tests pass their own roundoff floor
    "geometry.convergence_order(floor)",
    # pins one of the three seed branches, as --seed-normal does
    "geometry.normal_connection(seed_branch)",
    "geometry.surface_point_data(seed_branch)",
    # set by analyze --tol
    "geometry.surface_point_data(isothermal_tol)",
    # the name and domain of a parsed surface, set by the catalog and the CLI
    "surface_expr.parse_surface(name)",
    "surface_expr.parse_surface(domain)",
    # the v step of a grid whose steps differ, as FieldGrid's may
    "twistor.holomorphicity_residual(hv)",
    # set by isotropy --tol
    "twistor.isotropy_report(tol)",
}


def _defaulted(module_name):
    """Defaulted parameters of the functions, public methods and dataclass
    fields named in a module's __all__ (constructors of plain classes are
    their call sites' business and are not listed)."""
    mod = importlib.import_module(f"twistor4.{module_name}")
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            yield from (f"{module_name}.{name}({p.name})"
                        for p in inspect.signature(obj).parameters.values()
                        if p.default is not p.empty)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                yield from (f"{module_name}.{name}.{f.name}"
                            for f in dataclasses.fields(obj)
                            if f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING)
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_") or not inspect.isfunction(meth):
                    continue
                yield from (f"{module_name}.{name}.{meth_name}({p.name})"
                            for p in inspect.signature(meth).parameters.values()
                            if p.default is not p.empty)


def test_no_one_value_knobs():
    found = {p for m in MODULES for p in _defaulted(m)}
    assert found == ALLOWED, (
        f"new: {sorted(found - ALLOWED)}, gone: {sorted(ALLOWED - found)}")
