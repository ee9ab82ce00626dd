"""Properties of the package source itself."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hermitia"


def test_no_assert_statements_in_package():
    """``python -O`` strips assert statements, so no correctness condition
    may live in one."""
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_only_scalars_parses_expressions():
    """Outside values become scalars through ``SymbolTable.scalar``, so no
    other module calls a parser."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("parse", "parse_expr"):
                    found.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not found, found


def test_readme_check_kind_table_matches_declarations():
    """The README's table of check kinds names exactly the declared kinds,
    each with its declared required and optional parameters."""
    from hermitia.manifest import _COMMON, _KINDS, _REQUIRED

    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Check kinds", 1)[1].split("\n### ", 1)[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            kinds, required, optional = (
                set(re.findall(r"`([^`]+)`", cell)) for cell in line.strip("|").split("|")
            )
            for kind in kinds:
                assert kind not in documented, kind
                documented[kind] = (required, optional)
    assert set(documented) == set(_KINDS)
    for kind, decl in _KINDS.items():
        fields = {k: d for k, (_, d) in decl.fields.items() if k not in _COMMON}
        required = {k for k, d in fields.items() if d is _REQUIRED}
        assert documented[kind] == (required, set(fields) - required), kind


def test_tracer_span_targets_resolve():
    """Every (module, attribute) that perfbench/tracer.py wraps exists in the
    package, so a rename fails here and not in a traced benchmark run."""
    import importlib
    import importlib.util

    import hermitia

    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, targets in tracer.SPANS.items():
        for modname, attr in targets:
            module = importlib.import_module(f"hermitia.{modname}")
            if attr.startswith("_HANDLERS["):
                found = attr[len("_HANDLERS["):-1] in module._HANDLERS
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and meth in vars(cls)
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{span}: hermitia.{modname}.{attr}")
    missing += [f"Scalar.{op}" for op in tracer.SCALAR_OPS if op not in vars(hermitia.Scalar)]
    assert not missing, missing


def test_only_scalars_reads_the_polynomial_fraction():
    """A scalar's ``num``/``den`` is a storage detail of ``scalars.py``
    (Q(i) values are integer triples there), so no other module reads it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
                found.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not found, found


def test_hyperbolic_clears_each_input_only_at_its_boundary():
    """Inside ``hyperbolic.py`` only the boundary helper ``_exact`` converts
    or clears a matrix; every other function receives its integer rows."""
    tree = ast.parse((SRC / "hyperbolic.py").read_text(encoding="utf-8"))
    callers = {}
    for top in tree.body:
        defs = [top] if isinstance(top, ast.FunctionDef) else [
            f for f in getattr(top, "body", []) if isinstance(f, ast.FunctionDef)]
        for fn in defs:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                        node.func.id == "_cleared":
                    callers.setdefault(node.func.id, set()).add(fn.name)
    assert callers == {"_cleared": {"_exact"}}, callers


def test_exterior_products_share_one_kernel():
    """Every product of exterior monomials goes through
    ``cealg._add_products``; only d (``_d_terms``) keeps its own loop, so
    ``_merge_signed`` is called in those two functions and nowhere else."""
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    f = node.func if isinstance(node, ast.Call) else None
                    if getattr(f, "id", getattr(f, "attr", None)) == "_merge_signed":
                        callers.add(f"{path.name}:{fn.name}")
    assert callers == {"cealg.py:_add_products", "cealg.py:_d_terms"}, callers


def test_hyperbolic_row_reduces_only_in_kernel_basis():
    """Inside ``hyperbolic.py`` only ``kernel_basis`` names ``rref``: the
    hyperbolic eigenvectors come from Cayley-Hamilton, so no second field
    (such as Q(lambda)) is row reduced there."""
    tree = ast.parse((SRC / "hyperbolic.py").read_text(encoding="utf-8"))
    users = set()
    for top in tree.body:
        if isinstance(top, ast.ImportFrom):
            continue
        for node in ast.walk(top):
            if getattr(node, "id", getattr(node, "attr", None)) == "rref":
                users.add(getattr(top, "name", "<module>"))
    assert users == {"kernel_basis"}, users


def test_complex_model_reduces_once_and_inverts_nothing():
    """In ``complexops.py`` only ``ComplexModel.__init__`` names ``rref``, in
    its one call, and nothing names ``invert``: the coframe selection and the
    change of basis come from a single reduction."""
    tree = ast.parse((SRC / "complexops.py").read_text(encoding="utf-8"))
    model = next(top for top in tree.body if getattr(top, "name", None) == "ComplexModel")
    init = next(f for f in model.body if getattr(f, "name", None) == "__init__")

    def naming(node, name):
        return [n for n in ast.walk(node) if getattr(n, "id", getattr(n, "attr", None)) == name]

    reductions = naming(init, "rref")
    calls = [n for n in ast.walk(init) if isinstance(n, ast.Call) and n.func in reductions]
    assert naming(tree, "rref") == reductions and len(calls) == 1, reductions
    assert naming(tree, "invert") == []


def test_complexops_decides_integrability_once():
    """The complex model's split decides integrability and names the
    Nijenhuis witnesses: nothing in ``complexops.py`` names a bracket of the
    real basis, a dense J action on vectors or a second evaluation of N."""
    tree = ast.parse((SRC / "complexops.py").read_text(encoding="utf-8"))
    names = {
        getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
        for n in ast.walk(tree)
    }
    gone = {"bracket_coefficients", "apply_to_vector", "_nijenhuis_witnesses"}
    assert not names & gone, names & gone


def test_hyperbolic_bisects_in_one_loop():
    """Every bisection of ``hyperbolic.py`` to a width runs in ``_bisect``:
    the root refinement and the two square-root bounds of the spectral
    radius call it, and nothing else does."""
    tree = ast.parse((SRC / "hyperbolic.py").read_text(encoding="utf-8"))
    callers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_bisect":
                    callers.add(fn.name)
    assert callers == {"refine_interval", "spectral_radius_interval"}, callers


def test_omega_powers_are_the_wedge_power():
    """``HermitianCandidate.power`` builds omega_c^k as ``cealg.wedge_power``
    does for a form with no 0-form part, one ``wedge`` by omega_c per rung,
    on one ladder: it does not call ``wedge_power``, which would rebuild
    the lower rungs, and the expansion kernel it replaced (``_next_rung``,
    ``_by_first_index``) is not named in ``metrics.py``."""
    text = (SRC / "metrics.py").read_text(encoding="utf-8")
    assert "_next_rung" not in text and "_by_first_index" not in text
    tree = ast.parse(text)
    cand = next(top for top in tree.body if getattr(top, "name", None) == "HermitianCandidate")
    power = next(f for f in cand.body if getattr(f, "name", None) == "power")
    called = {getattr(n.func, "id", None) for n in ast.walk(power) if isinstance(n, ast.Call)}
    assert "wedge" in called and "wedge_power" not in called


def test_quaternion_does_not_import_numpy():
    """The HKT positivity check takes its exact signature from
    ``metrics.gram_and_signature``, so ``quaternion.py`` needs no numpy."""
    tree = ast.parse((SRC / "quaternion.py").read_text(encoding="utf-8"))
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not [m for m in modules if m and m.split(".")[0] == "numpy"], modules


def test_no_float_decides_a_sign_at_a_valuation():
    """Signs at a valuation come from ``Scalar.at`` and ``Scalar.sign_at``:
    no numeric eigenvalues and no relation tolerance anywhere in the
    package, and ``Scalar.evaluate``'s float is read only by
    ``metrics.positivity_falsify``'s sampler."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "eigvalsh" not in text and "relation_tol" not in text, path.name
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "evaluate"):
                    callers.append(f"{path.name}:{getattr(top, 'name', None)}")
    assert callers == ["metrics.py:positivity_falsify"]


def test_linear_defines_one_elimination():
    """``linear.rref`` is the package's one row reduction, over rows held as
    ``{column: value}`` dicts: no dense or sparse twin is defined beside it,
    in ``linear.py`` or elsewhere."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and "rref" in node.name.lower():
                found.append(f"{path.name}:{node.name}")
    assert found == ["linear.py:rref"], found


def test_linear_kernels_take_no_zero_test():
    """Truthiness is the zero test of ints, Fractions and scalars alike, so
    ``rref`` and ``congruence_signature`` take no ``is_zero`` parameter and
    ``linear`` keeps no helper that finds one (``_zero_test``)."""
    tree = ast.parse((SRC / "linear.py").read_text(encoding="utf-8"))
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name in ("rref", "congruence_signature"):
        assert "is_zero" not in [a.arg for a in defs[name].args.args], name
    assert "_zero_test" not in defs


def test_hyperbolic_multiplies_on_the_linear_kernel_outside_every_span():
    """``hyperbolic`` keeps no matrix product of its own (``_mat_mul``), and
    it names no ``linear`` function that ``perfbench/tracer.py`` wraps, so
    lattice work fires no ``linear.*`` span."""
    import importlib.util

    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spanned = {attr for targets in tracer.SPANS.values() for mod, attr in targets if mod == "linear"}
    assert "mat_mul" in spanned
    tree = ast.parse((SRC / "hyperbolic.py").read_text(encoding="utf-8"))
    assert "_mat_mul" not in {getattr(n, "name", None) for n in ast.walk(tree)}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "linear":
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linear":
            named.add(node.attr)
    assert "product" in named
    assert not named & spanned, named & spanned


def test_scalar_subtraction_is_addition_of_the_negation():
    """``Scalar.__sub__`` returns ``self + (-o)``, so subtraction runs the
    same-table fast path of ``__add__`` and is counted as an addition by the
    benchmark's tracer."""
    tree = ast.parse((SRC / "scalars.py").read_text(encoding="utf-8"))
    cls = next(top for top in tree.body if getattr(top, "name", None) == "Scalar")
    sub = next(f for f in cls.body if getattr(f, "name", None) == "__sub__")
    returned = sub.body[-1]
    assert isinstance(returned, ast.Return)
    assert ast.unparse(returned.value) == "self + -o"


def test_term_lists_share_one_canonicalizer():
    """Every term list that becomes a form is sorted through
    ``cealg._collect``; besides it only ``Form.coefficient`` sorts an index
    tuple, so ``_sort_signed`` is called in those two functions alone."""
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    f = node.func if isinstance(node, ast.Call) else None
                    if getattr(f, "id", getattr(f, "attr", None)) == "_sort_signed":
                        callers.add(f"{path.name}:{fn.name}")
    assert callers == {"cealg.py:_collect", "cealg.py:coefficient"}, callers


def test_indented_json_has_one_writer():
    """Every indent-2 JSON output (``Manifest.to_json``, ``Report.to_json``,
    the ``classify --report json`` and ``power`` outputs of the CLI) is
    written by ``manifest.json_text``; the only ``json.dumps`` with an
    ``indent`` is its fallback in ``_write``."""
    indented, writers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "dumps" and any(k.arg == "indent" for k in node.keywords):
                    indented.add(f"{path.name}:{fn.name}")
                if name == "json_text":
                    writers.add(f"{path.name}:{fn.name}")
    assert indented == {"manifest.py:_write"}, indented
    assert writers == {"manifest.py:to_json", "cli.py:_cmd_classify", "cli.py:_cmd_power"}, writers
    manifest = ast.parse((SRC / "manifest.py").read_text(encoding="utf-8"))
    classes = {"Manifest", "Report"}
    owners = {
        cls.name for cls in manifest.body
        if isinstance(cls, ast.ClassDef) and cls.name in classes
        for fn in cls.body if getattr(fn, "name", None) == "to_json"
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "json_text"
    }
    assert owners == classes, owners


def test_only_scalars_reads_a_symbol_tables_storage():
    """Symbol tables are joined by ``SymbolTable.merge`` and compared by
    ``SymbolTable.compatible``, so no module but ``scalars.py`` reads a
    table's ``relations``, ``sign_hints`` or ``_sig`` or imports the
    polynomial printer ``_poly_str``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("relations", "sign_hints", "_sig"):
                found.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and any(a.name == "_poly_str" for a in node.names):
                found.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not found, found


def test_complexops_resolves_no_generator_reference():
    """Generator references are resolved by the presentation
    (``LieAlgebraPresentation.resolve``): ``complexops.py`` calls no
    ``index_of`` and applies ``int`` to no name, attribute or item."""
    tree = ast.parse((SRC / "complexops.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            on_ref = any(isinstance(a, (ast.Name, ast.Attribute, ast.Subscript)) for a in node.args)
            if name == "index_of" or (name == "int" and on_ref):
                found.append(node.lineno)
    assert not found, found


def _functions(tree):
    """(qualified name, node) of every function and method of a module."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{top.name}.{fn.name}", fn


def _called(node):
    """The names of the functions and methods ``node`` calls."""
    return {
        getattr(n.func, "id", getattr(n.func, "attr", None))
        for n in ast.walk(node) if isinstance(n, ast.Call)
    }


def test_forms_have_one_conjugation():
    """``Form.conjugate`` is complex conjugation in the form's own basis:
    no module defines ``conjugate_form`` or ``ComplexModel.conjugate``, only
    ``Form.conjugate`` builds a form from conjugated terms, and it asks the
    presentation for them (``conjugate_terms``)."""
    defined, builders, askers = set(), set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{name}"
            if name.split(".")[-1] in ("conjugate", "conjugate_form"):
                defined.add(where)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Form":
                    if _called(node) & {"conjugate", "conjugate_terms"}:
                        builders.add(where)
            if "conjugate_terms" in _called(fn):
                askers.add(where)
    assert defined == {"cealg.py:Form.conjugate", "scalars.py:Scalar.conjugate",
                       "scalars.py:conjugate"}, defined
    assert builders == {"cealg.py:Form.conjugate"}, builders
    assert askers == {"cealg.py:Form.conjugate"}, askers


def test_manifest_prints_forms_in_whatever_basis_they_come():
    """``serialize_form`` takes a form to the real basis itself, so no
    argument of a ``serialize_form(...)`` call in ``manifest.py`` is wrapped
    in ``real_basis``."""
    tree = ast.parse((SRC / "manifest.py").read_text(encoding="utf-8"))
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "serialize_form"
        and any("real_basis" in _called(arg) for arg in node.args)
    ]
    assert not found, found
