"""Source scans of the package.

Certificates must survive `python -O`, which strips `assert` statements, and
the package needs nothing beyond the standard library (importing numpy alone
took peak RSS from 17 to 29 MB). The choice between the exact and the
binary64 route is made in one place, `asymptotics._exact`, the content of a
coefficient vector is taken in one place, `exactpoly._primitive`, two
coefficient vectors are multiplied in one place, `exactpoly._mul`, a Sturm
chain is evaluated at a point only to split a run of grid samples, in
`roots._isolate`, the one kernel that isolates roots on one dyadic lattice, a
chain is built through one memo entry, `roots._prs`, which only `SturmChain`,
`interlace_check` and `poly_gcd` call, a polynomial's squarefree split and
sign grid are made only inside the other memo, `roots._placement` (the grid
when first read, by `_Placement.phase`), a common factor is proposed only
for that split (`_squarefree_split`), never for a chain, `roots` wraps
integers back into a `RationalPoly` only for `poly_gcd`'s result, and Phi_n
has one construction, its Lagrange basis, with no elimination in `css`. The Narayana family has one folded root
representation: `exactpoly._fold` serves criterion 6 and
`narayana_root_sample`, the one caller of `certify_roots`. A falsified claim raises the
one `exactpoly.TheoremViolation`; every other exception class the package
defines is an input or domain error. A `RationalPoly` is stored as integers over
one denominator, so no `_clear_denominators` call reads its `.coeffs` back.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import schur_szego


def _nodes():
    sources = sorted(Path(schur_szego.__file__).parent.glob("*.py"))
    assert any(path.name == "roots.py" for path in sources)
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_package():
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_numpy_imports_in_package():
    found = [where for where, node in _nodes()
             if any(name.split(".")[0] == "numpy" for name in _imported_modules(node))]
    assert found == []


def _is_exact_test(node):
    """An `isinstance(_, (Fraction, int))` call, in either order."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)
            and sorted(getattr(e, "id", "") for e in node.args[1].elts)
            == ["Fraction", "int"])


def test_one_exact_float_dispatch():
    inside = set()
    for where, node in _nodes():
        if where.startswith("asymptotics.py:") and isinstance(node, ast.FunctionDef) \
                and node.name == "_exact":
            inside |= {f"asymptotics.py:{n.lineno}" for n in ast.walk(node) if _is_exact_test(n)}
    found = {where for where, node in _nodes() if _is_exact_test(node)}
    assert sorted(found - inside) == []
    assert len(inside) == 1


def _is_starred_gcd(node):
    """A `math.gcd(*...)` call: the content of a coefficient vector."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "gcd" and getattr(node.func.value, "id", None) == "math"
            and any(isinstance(arg, ast.Starred) for arg in node.args))


def test_one_content_kernel():
    inside = set()
    for where, node in _nodes():
        if where.startswith("exactpoly.py:") and isinstance(node, ast.FunctionDef) \
                and node.name == "_primitive":
            inside |= {f"exactpoly.py:{n.lineno}" for n in ast.walk(node) if _is_starred_gcd(n)}
    found = {where for where, node in _nodes() if _is_starred_gcd(node)}
    assert sorted(found - inside) == []
    assert len(inside) == 1


def _is_convolution_step(node):
    """`out[i + j] += x * y`: a product accumulated at the sum of two indices."""
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.target.slice, ast.BinOp)
            and isinstance(node.target.slice.op, ast.Add)
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Mult))


def test_one_product_kernel():
    inside = set()
    for where, node in _nodes():
        if where.startswith("exactpoly.py:") and isinstance(node, ast.FunctionDef) \
                and node.name == "_mul":
            inside |= {f"exactpoly.py:{n.lineno}" for n in ast.walk(node)
                       if _is_convolution_step(n)}
    found = {where for where, node in _nodes() if _is_convolution_step(node)}
    assert sorted(found - inside) == []
    assert len(inside) == 1


def _clears_coeffs(node):
    """A `_clear_denominators(...)` call whose argument reads `.coeffs`."""
    return (isinstance(node, ast.Call)
            and "_clear_denominators" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))
            and any(isinstance(n, ast.Attribute) and n.attr == "coeffs"
                    for arg in node.args for n in ast.walk(arg)))


def test_no_polynomial_cleared_back_to_integers():
    assert _clears_coeffs(ast.parse("_clear_denominators(p.coeffs[1:])").body[0].value)
    assert [where for where, node in _nodes() if _clears_coeffs(node)] == []


def _is_variations_call(node):
    """A `….variations_at(…)` call: a Sturm chain evaluated at a point."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "variations_at")


def test_sturm_evaluation_only_in_isolation():
    inside = set()
    for where, node in _nodes():
        if where.startswith("roots.py:") and isinstance(node, ast.FunctionDef) \
                and node.name == "_isolate":
            inside |= {f"roots.py:{n.lineno}" for n in ast.walk(node) if _is_variations_call(n)}
    found = {where for where, node in _nodes() if _is_variations_call(node)}
    assert sorted(found - inside) == []
    assert inside


def _scopes_calling(name):
    """(module file, qualified name of the enclosing definitions, "" at module
    level) for every call of `name`, by bare name or as an attribute."""
    found = set()

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, where, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.add((where, scope))
            visit(child, where, scope)

    for path in sorted(Path(schur_szego.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def test_one_entry_to_the_chain_memo():
    assert _scopes_calling("_prs") == {("roots.py", "SturmChain.__init__"),
                                       ("roots.py", "interlace_check"), ("roots.py", "poly_gcd")}


def test_one_entry_to_the_placement_memo():
    # a polynomial is split and its sign grid sampled once, in the memo's kernel
    assert _scopes_calling("_squarefree_split") == {("roots.py", "_placement")}
    assert _scopes_calling("_sign_phase") == {("roots.py", "_Placement.phase")}


def test_common_factor_proposed_only_for_the_squarefree_split():
    assert _scopes_calling("_common_factor") == {("roots.py", "_squarefree_split")}


def test_one_folded_root_representation():
    assert _scopes_calling("_fold") == {("acceptance.py", "check_hyperbolic_interlacing"),
                                        ("asymptotics.py", "narayana_root_sample")}
    assert _scopes_calling("certify_roots") == {("asymptotics.py", "narayana_root_sample")}


def test_roots_makes_a_rational_poly_only_for_a_gcd():
    assert {s for s in _scopes_calling("RationalPoly") if s[0] == "roots.py"} \
        == {("roots.py", "poly_gcd")}


def _names_rref(node):
    """An import of `_rref`, or the name or attribute `_rref` that a call reads."""
    return (isinstance(node, ast.ImportFrom) and any(a.name == "_rref" for a in node.names)
            or isinstance(node, ast.Name) and node.id == "_rref"
            or isinstance(node, ast.Attribute) and node.attr == "_rref")


def test_phi_is_built_without_elimination():
    found = [where for where, node in _nodes() if where.startswith("css.py:") and _names_rref(node)]
    assert found == []


def test_one_violation_class_beside_the_input_and_domain_errors():
    found = set()
    for info in pkgutil.iter_modules(schur_szego.__path__):
        module = importlib.import_module(f"schur_szego.{info.name}")
        found |= {name for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__}
    assert found == {"TheoremViolation", "NotDivisibleError", "SingularMatrixError",
                     "DegreeOverflowError", "NotInDomainError", "PoleError",
                     "BranchCutError", "RatioPoleError", "UsageError"}
    # not a ValueError or an ArithmeticError, so no input or domain handler swallows it
    assert schur_szego.exactpoly.TheoremViolation.__bases__ == (Exception,)
