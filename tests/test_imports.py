"""Every name a package or test module imports is used in that module, every
module-level private function or class is used somewhere in the package,
every public one is used there or exported at the root, ``__all__``
lists exactly the public names the package root binds, no
``RationalFunction`` method, sum of products or exterior-algebra code
calls the gcd or the exact division itself, the exact division has one
caller besides ``poly_exact_div``, the codifferential composes the
interior product and the exterior derivative with no loop of its own, no
verdict outside ``report`` decides an exact residual by hand, no code
outside ``anchor`` writes a Hamiltonian field out, no module but
``anchor`` names the codifferential, ``certify`` calls neither the
involution table nor the chain check, the sharp extension takes no
wedge, the sum of products multiplies no two polynomials, the
closed-form check reads its brackets off Phi_lambda without wedging, no
class but ``Polynomial`` has an ``__init__`` that only copies its
arguments, and no module but ``cli`` imports ``gc`` or ``atexit``, whose
``main`` alone names them.

No linter ships with the toolchain, so this walks the syntax trees with
``ast``.  ``__init__.py`` is exempt from the import check: its imports are
re-exports."""

import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import involution_forge

PACKAGE = Path(involution_forge.__file__).parent


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_use_every_import():
    unused = {}
    tests = sorted(Path(__file__).parent.glob("*.py"))
    for path in sorted(PACKAGE.glob("*.py")) + tests:
        if path.name == "__init__.py":
            continue
        found = _unused_imports(path.read_text(encoding="utf-8"))
        if found:
            unused[path.name] = found
    assert unused == {}


def test_unused_import_is_reported():
    source = "from fractions import Fraction\nimport json\njson.dumps(1)\n"
    assert _unused_imports(source) == [(1, "Fraction")]


def _names(tree) -> Counter:
    """Every name a tree mentions: loads, attributes and imported names."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def _unreferenced(sources: dict) -> list:
    """(module, name) of each module-level function or class that no code
    outside its own body mentions.  The root ``__init__`` imports every
    name it exports, so an exported name is never reported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    mentioned = Counter()
    for tree in trees.values():
        mentioned.update(_names(tree))
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if mentioned[node.name] == _names(node)[node.name]:
                unreferenced.append((module, node.name))
    return sorted(unreferenced)


def _unreferenced_privates(sources: dict) -> list:
    return [(module, name) for module, name in _unreferenced(sources)
            if name.startswith("_") and not name.startswith("__")]


def _unreferenced_publics(sources: dict) -> list:
    """Public definitions that only tests could be calling."""
    return [(module, name) for module, name in _unreferenced(sources)
            if not name.startswith("_")]


def _package_sources() -> dict:
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_package_references_every_private_definition():
    assert _unreferenced_privates(_package_sources()) == []


def test_unreferenced_private_is_reported():
    sources = {
        "a.py": "def _used():\n    return 1\n\n"
                "def _dead():\n    return _dead()\n\n"
                "class _Gone:\n    pass\n",
        "b.py": "from .a import _used\n\nprint(_used())\n",
    }
    assert _unreferenced_privates(sources) == [("a.py", "_Gone"),
                                               ("a.py", "_dead")]


def test_package_uses_or_exports_every_public_definition():
    # a public function or class that no package code calls and the root
    # does not export is only a wrapper for tests; they call what it wraps
    assert _unreferenced_publics(_package_sources()) == []


def test_unreferenced_public_is_reported():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported():\n    return helper()\n\n"
                "def helper():\n    return 1\n\n"
                "def wrapper():\n    return wrapper\n\n"
                "class Orphan:\n    pass\n\n"
                "def _private():\n    pass\n",
    }
    assert _unreferenced_publics(sources) == [("a.py", "Orphan"),
                                              ("a.py", "wrapper")]


def _copies_a_parameter(stmt, params) -> bool:
    """Whether ``stmt`` is ``self.<p> = <p>``, annotated or not, for one of
    the parameters ``params``, ``self`` being the first of them."""
    target = stmt.target if isinstance(stmt, ast.AnnAssign) else (
        stmt.targets[0] if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1 else None)
    return (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == params[0]
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id == target.attr and target.attr in params[1:])


def _copying_constructors(sources: dict) -> list:
    """(module, class) of each class whose ``__init__`` only copies its
    arguments: a docstring aside, every statement is ``self.<p> = <p>``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not (isinstance(method, ast.FunctionDef)
                        and method.name == "__init__"):
                    continue
                args = method.args
                params = [a.arg for a in args.posonlyargs + args.args
                          + args.kwonlyargs]
                body = method.body[ast.get_docstring(method) is not None:]
                if body and all(_copies_a_parameter(stmt, params)
                                for stmt in body):
                    found.append((module, node.name))
    return sorted(found)


def test_records_name_their_fields_once():
    # a class that only stores its arguments is a symexpr.Record naming its
    # _fields once, with no __init__ of its own.  Polynomial is the one
    # exception: its constructor runs on every arithmetic result, and three
    # plain assignments cost less than Record's check of its arguments
    assert _copying_constructors(_package_sources()) == [
        ("symexpr.py", "Polynomial")]


def test_copying_constructor_is_reported():
    source = '''
class Copies:
    def __init__(self, a, b):
        """Stores a and b."""
        self.a = a
        self.b: int = b

class Checks:
    def __init__(self, a):
        if a < 0:
            raise ValueError(a)
        self.a = a

class Converts:
    def __init__(me, a, b):
        me.a = a
        me.b = tuple(b)

class Renames:
    def __init__(self, a):
        self.b = a

def outer():
    class Inner:
        def __init__(me, a, *, b):
            me.a = a
            me.b = b
    return Inner
'''
    assert _copying_constructors({"a.py": source}) == [("a.py", "Copies"),
                                                       ("a.py", "Inner")]


def test_package_root_exports_every_public_name():
    bound = {
        name for name, value in vars(involution_forge).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    exported = {
        name for name in involution_forge.__all__
        if not isinstance(getattr(involution_forge, name), ModuleType)
    }
    assert bound == exported


def _method_calls(source: str, cls: str, names) -> list:
    """(method, callee) for each call by bare name to one of ``names``
    inside a method of the class ``cls``."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            found.extend(
                (method.name, call.func.id) for call in ast.walk(method)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id in names
            )
    return sorted(found)


def _calls_to(tree, names) -> list:
    """Callee of each call inside ``tree`` to one of ``names``."""
    return sorted(_callee(call) for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and _callee(call) in names)


def test_rational_functions_cancel_only_through_one_helper():
    # the cancellation policy (when to take a gcd, when to divide) lives
    # in symexpr._cancel alone: RationalFunction methods and the sum of
    # products go through it, and the exterior algebra does not cancel.
    # The exact division poly_quotient has one other caller,
    # quotient_by_factor, which tries it where a factor is expected and
    # otherwise cancels against that one factor through _cancel: a power
    # of the factor is divided one factor at a time, so the cancellation
    # cannot be left to the general quotient
    dividers = {"poly_gcd", "poly_exact_div", "poly_quotient"}
    source = (PACKAGE / "symexpr.py").read_text(encoding="utf-8")
    assert _method_calls(source, "RationalFunction", dividers) == []
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    helper = functions["sum_of_products"]
    assert _calls_to(helper, dividers) == []
    assert _calls_to(helper, {"_cancel"}) == ["_cancel"]
    assert sorted(name for name, node in functions.items()
                  if _calls_to(node, {"poly_quotient"})) == [
        "poly_exact_div", "quotient_by_factor"]
    assert _calls_to(functions["quotient_by_factor"],
                     dividers | {"_cancel"}) == ["_cancel", "poly_quotient"]
    for module in ("exterior.py", "anchor.py", "pencil.py", "verify.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert _calls_to(tree, dividers | {"_cancel"}) == [], module
    # the fraction-free elimination divides exactly, by ``//``, and takes no
    # gcd: each entry it reads off is cancelled once, by the
    # RationalFunction constructor
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    assert _calls_to(tree, dividers | {"_cancel"}) == []


def _modules_naming(sources: dict, name: str, home: str) -> list:
    """Modules besides ``home`` and the root ``__init__`` (whose imports
    are re-exports) whose code mentions ``name``."""
    return sorted(module for module, source in sources.items()
                  if module not in (home, "__init__.py")
                  and _names(ast.parse(source))[name])


def test_only_anchor_names_the_codifferential():
    # the sigma conditions are Schouten brackets of the lifted bivectors;
    # the codifferential stays in anchor as API and as the tests' oracle
    assert _modules_naming(_package_sources(), "codifferential",
                           "anchor.py") == []


def test_module_naming_a_function_is_reported():
    sources = {
        "__init__.py": "from .a import f\n",
        "a.py": "def f():\n    return 1\n",
        "b.py": "from .a import f\n\nf()\n",
        "c.py": "from . import a\n\na.f()\n",
        "d.py": "# f is not called here\nx = 'f'\n",
    }
    assert _modules_naming(sources, "f", "a.py") == ["b.py", "c.py"]


def _callee(call: ast.Call) -> str:
    """The called name, bare or as an attribute."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _calls(source: str, name: str) -> list:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _callee(node) == name]


def _verdicts_on_is_zero(source: str) -> list:
    """Line of each Verdict(...) call whose ``passed`` argument is an
    ``.is_zero()`` call."""
    found = []
    for call in _calls(source, "Verdict"):
        passed = call.args[1:2] + [
            kw.value for kw in call.keywords if kw.arg == "passed"
        ]
        if any(isinstance(arg, ast.Call) and _callee(arg) == "is_zero"
               for arg in passed):
            found.append(call.lineno)
    return sorted(found)


def _inline_hamiltonian_fields(source: str) -> list:
    """Line of each bivector_sharp(P, differential(...)) call."""
    return sorted(
        call.lineno for call in _calls(source, "bivector_sharp")
        if len(call.args) > 1 and isinstance(call.args[1], ast.Call)
        and _callee(call.args[1]) == "differential"
    )


def _found_outside(home: str, finder) -> dict:
    found = {
        module: finder(source)
        for module, source in _package_sources().items() if module != home
    }
    return {module: lines for module, lines in found.items() if lines}


def test_exact_residuals_are_judged_only_by_vanishes():
    # report.vanishes is the one rule for an identity that must vanish:
    # PASS with no witness, FAIL with the whole residual
    assert _found_outside("report.py", _verdicts_on_is_zero) == {}


def test_verdict_on_is_zero_is_reported():
    source = ("Verdict('a', r.is_zero(), r)\n"
              "Verdict('b', passed=r.is_zero())\n"
              "Verdict('c', r == 0, r)\n"
              "report.Verdict('d', r.is_zero())\n"
              "Verdict('e', True, r.is_zero())\n")
    assert _verdicts_on_is_zero(source) == [1, 2, 4]


def test_hamiltonian_fields_are_taken_only_through_hamiltonian_vf():
    # X_f = Pi#(df) is anchor.hamiltonian_vf
    assert _found_outside("anchor.py", _inline_hamiltonian_fields) == {}


def test_inline_hamiltonian_field_is_reported():
    source = ("bivector_sharp(P, differential(f, P.table))\n"
              "bivector_sharp(P, ds)\n"
              "anchor.bivector_sharp(\n    P, exterior.differential(f))\n"
              "hamiltonian_vf(P, f)\n")
    assert _inline_hamiltonian_fields(source) == [1, 3]


def _definition(source: str, name: str):
    """The module-level function ``name``, or the method ``Class.method``."""
    body = ast.parse(source).body
    for part in name.split("."):
        [node] = [node for node in body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name == part]
        body = node.body
    return node


def _function_calls(source: str, function: str) -> set:
    """Callees of every call inside the function or method ``function``."""
    return {_callee(call) for call in ast.walk(_definition(source, function))
            if isinstance(call, ast.Call)}


ANY_LOOP = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
            ast.GeneratorExp)


def _loops(source: str, function: str, kinds=(ast.For, ast.While)) -> list:
    """Line of each loop of the given kinds inside ``function``."""
    return sorted(node.lineno
                  for node in ast.walk(_definition(source, function))
                  if isinstance(node, kinds))


def test_certify_takes_no_bracket_table_and_no_chain_check():
    # certify reads each Casimir residual, involution entry and link off
    # the fields Pi0#df and Pi1#df it takes once per family function; the
    # public checks stay as API and as the tests' oracles
    source = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    assert _function_calls(source, "certify") & {
        "involution_table", "lenard_magri_check", "casimir_check",
        "hamiltonian_vf"} == set()


def test_sharp_extend_takes_no_wedge():
    # each image component is one sum of products, not a wedge of images
    source = (PACKAGE / "anchor.py").read_text(encoding="utf-8")
    assert "wedge" not in _function_calls(source, "_sharp_extend")


def test_function_calls_are_reported():
    source = ("def f(P):\n    return wedge(g(P), exterior.wedge(P))\n\n"
              "def g(P):\n    return h(P)\n")
    assert _function_calls(source, "f") == {"wedge", "g"}


def test_method_calls_and_loops_are_reported():
    source = ("class P:\n    def f(self, a):\n        for x in a:\n"
              "            g(x)\n        return {y: 1 for y in a}\n\n"
              "def f(a):\n    return a\n")
    assert _function_calls(source, "P.f") == {"g"}
    assert _function_calls(source, "f") == set()
    assert _loops(source, "P.f") == [3]
    assert _loops(source, "P.f", ANY_LOOP) == [3, 5]


def test_bivector_sharp_is_the_degree_one_sharp_extend():
    # one sharp: Pi# of a 1-form is the degree-1 case of the extension,
    # with no loop of its own over the components
    source = (PACKAGE / "anchor.py").read_text(encoding="utf-8")
    assert "_sharp_extend" in _function_calls(source, "bivector_sharp")
    assert _loops(source, "bivector_sharp", ANY_LOOP) == []


def test_codifferential_composes_interior_and_exterior_derivative():
    # delta = (-1)^p (i_Lambda d - d i_Lambda) in its defining form: the
    # package's own contraction and derivative, with no loop of its own
    # over the components
    source = (PACKAGE / "anchor.py").read_text(encoding="utf-8")
    calls = _function_calls(source, "codifferential")
    assert {"interior", "exterior_derivative"} <= calls
    assert _loops(source, "codifferential", ANY_LOOP) == []


def test_every_closed_form_bracket_is_read_off_one_bivector():
    # the sign and the volume of {x_a, x_b} = dx_a^dx_b^Phi_lambda / Omega
    # live in pencil.closed_form_bivector alone: the bracket command and
    # the certificate's check both go through it, and neither wedges
    pencil = (PACKAGE / "pencil.py").read_text(encoding="utf-8")
    verify = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    for source, function in ((pencil, "bracket_closed_form"),
                             (verify, "_closed_form_equivalence")):
        calls = _function_calls(source, function)
        assert "closed_form_bivector" in calls, function
        assert "wedge" not in calls, function
    assert _calls(verify, "volume_coefficient") == []


def test_polynomial_product_goes_through_the_fused_kernel():
    # one term-pair loop: Polynomial * Polynomial adds its products into
    # a term dict with _add_product, like each group of sum_of_products
    source = (PACKAGE / "symexpr.py").read_text(encoding="utf-8")
    assert "_add_product" in _function_calls(source, "Polynomial.__mul__")
    assert _loops(source, "Polynomial.__mul__") == []


def _polynomial_products(tree) -> list:
    """Line of each ``*`` inside ``tree`` with a polynomial operand: the
    numerator or denominator of a fraction (``x.num``, ``x.den`` for a name
    ``x`` whose ``.num`` the code reads), or a name assigned from one.  The
    integer denominator ``p.den`` of a polynomial ``p`` does not count."""
    def fraction_part(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr in ("num", "den")
                and isinstance(node.value, ast.Name)
                and node.value.id in fractions)

    fractions = {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "num"
                 and isinstance(node.value, ast.Name)}
    polynomials = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if (isinstance(target, ast.Tuple)
                    and isinstance(node.value, ast.Tuple)):
                pairs = zip(target.elts, node.value.elts)
            polynomials.update(name.id for name, value in pairs
                               if isinstance(name, ast.Name)
                               and fraction_part(value))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and any(fraction_part(operand) or isinstance(operand, ast.Name)
                and operand.id in polynomials
                for operand in (node.left, node.right)))


def test_sum_of_products_multiplies_no_two_polynomials():
    # each product a*c goes term pair by term pair into its group's term
    # dict, and so does the group denominator b*d: no polynomial per product
    source = (PACKAGE / "symexpr.py").read_text(encoding="utf-8")
    [node] = [node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef)
              and node.name == "sum_of_products"]
    assert _polynomial_products(node) == []


def test_polynomial_product_is_reported():
    source = ("for sign, left, right in products:\n"
              "    a, c = left.num, right.num\n"
              "    b = left.den\n"
              "    x = left.num * right.num\n"
              "    y = b * right.den\n"
              "    z = 2 * a\n"
              "    w = a.den * c.den * sign\n"
              "    v = sign * 3\n")
    assert _polynomial_products(ast.parse(source)) == [4, 5, 6]


def test_closed_form_check_reads_phi_without_wedging():
    # each coordinate bracket is one component of Phi_lambda, up to sign,
    # over the volume's coefficient: no dx_a^dx_b^Phi_lambda is formed
    source = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    assert _function_calls(source, "_closed_form_equivalence") & {
        "wedge", "differential", "bracket_closed_form"} == set()


PROCESS_MODULES = {"gc", "atexit"}


def _process_hooks(sources: dict) -> list:
    """(module, "import") for each module that imports ``gc`` or ``atexit``,
    and (module, where) for each module-level function or class, or
    "<module>" for any other module-level statement, that names what such
    an import binds."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias for alias in node.names
                         if alias.name.split(".")[0] in PROCESS_MODULES]
                bound.update(alias.asname or alias.name.split(".")[0]
                             for alias in names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module in PROCESS_MODULES):
                names = node.names
                bound.update(alias.asname or alias.name for alias in names)
            else:
                continue
            if names:
                found.add((module, "import"))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = node.name if isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else (
                "<module>")
            if any(isinstance(name, ast.Name) and name.id in bound
                   for name in ast.walk(node)):
                found.add((module, where))
    return sorted(found)


def test_only_cli_main_touches_the_process_heap():
    # main freezes the heap at exit for the process it ends; the library
    # entry run() and every engine module leave the process alone
    assert _process_hooks(_package_sources()) == [("cli.py", "import"),
                                                  ("cli.py", "main")]


def test_process_hook_is_reported():
    sources = {
        "a.py": "import gc as g\n\ndef f():\n    g.freeze()\n",
        "b.py": "from atexit import register\nregister(print)\n",
        "c.py": "class C:\n    def h(self):\n        import gc\n"
                "        return gc.collect()\n",
        "d.py": "import json\ngc = 1\n\ndef gc_count():\n    return gc\n",
    }
    assert _process_hooks(sources) == [
        ("a.py", "f"), ("a.py", "import"), ("b.py", "<module>"),
        ("b.py", "import"), ("c.py", "C"), ("c.py", "import")]
