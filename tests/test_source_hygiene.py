"""Source checks no linter is needed for: the library imports exactly the
runtime dependencies pyproject.toml declares, every import of an
``anisonl`` module is used there, every annotation there resolves, no
handler there catches every error, no code there switches on the type of
an exterior rule, the dense oracle shares no code with the fast lattice
paths, every library exception is a ``PreconditionError`` that no handler
rewraps by name, every public function, class and method of the library
is run by a command or named as an oracle, the CLI reads no private
attribute and raises no failed hypothesis outside ``run``, every lemma
check in ``tests/lemmas.py`` has a test that calls it, every
defaulted parameter of the library is passed by a call in it or
allowlisted with its reason, and no library function evaluates a grid
field at its own lattice points."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import tomllib
import typing
from pathlib import Path

import pytest

import anisonl

MODULES = sorted(info.name for info in pkgutil.iter_modules(anisonl.__path__))
SOURCE = Path(anisonl.__file__).parent
TESTS = Path(__file__).parent


def imported_names(tree):
    """Names bound by the module's import statements, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    path = Path(anisonl.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


# CPython's built-in SHA-256 module, which the running interpreter's
# sys.stdlib_module_names may not list: _sha256 up to 3.11, _sha2 from 3.12
BUILTIN_SHA = {"_sha2", "_sha256"}


def test_third_party_imports_are_the_dependencies():
    """The top-level modules outside the standard library that the library
    imports, at any depth, are exactly the runtime dependencies that
    pyproject.toml declares: none undeclared, none declared and unused."""
    imported = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    pyproject = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0]
                for req in pyproject["project"]["dependencies"]}
    assert imported - set(sys.stdlib_module_names) - BUILTIN_SHA == declared


def catch_all_lines(tree):
    """Lines of bare ``except``, ``except Exception`` and ``except
    BaseException`` handlers, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        if any(t is None or isinstance(t, ast.Name)
               and t.id in ("Exception", "BaseException") for t in types):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", MODULES)
def test_no_catch_all_handler(name):
    path = Path(anisonl.__file__).parent / f"{name}.py"
    assert catch_all_lines(ast.parse(path.read_text())) == []


EXTERIOR_RULES = {"ConstantExterior", "AffineExterior", "CallableExterior"}


def exterior_type_switch_lines(tree):
    """Lines of ``isinstance`` calls whose class argument names an exterior
    rule, alone or in a tuple: each rule answers for itself."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        cls = node.args[1]
        types = cls.elts if isinstance(cls, ast.Tuple) else [cls]
        names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
                 for t in types}
        if names & EXTERIOR_RULES:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", MODULES)
def test_no_exterior_type_switch(name):
    path = Path(anisonl.__file__).parent / f"{name}.py"
    assert exterior_type_switch_lines(ast.parse(path.read_text())) == []


FAST_PATHS = {"Lattice", "lattice", "padded", "_coupling", "pair_sums",
              "matvec", "_circulant_stencil", "AssembledOperator",
              "discrete_extremal", "fft"}


def test_dense_oracle_is_independent():
    """``solver.dense_matrix`` loops over the offsets only, never over the
    lattice points, and names none of the FFT or padded-lattice paths it
    is the oracle for."""
    path = Path(anisonl.__file__).parent / "solver.py"
    dense = next(node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "dense_matrix")
    for node in ast.walk(dense):
        if isinstance(node, (ast.For, ast.comprehension)):
            assert ast.unparse(node.iter) in ("off", "enumerate(off)")
    names = {node.id for node in ast.walk(dense) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(dense)
             if isinstance(node, ast.Attribute)}
    assert (names | attrs) & FAST_PATHS == set()


def exception_classes():
    """Every exception class defined in an ``anisonl`` module."""
    for name in MODULES:
        module = importlib.import_module(f"anisonl.{name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and issubclass(obj, BaseException) \
                    and obj.__module__ == module.__name__:
                yield obj


def test_every_exception_is_a_precondition():
    """A library exception means the data fail a hypothesis, exit 3; only
    the CLI's ``ConfigError`` (exit 2) stands apart."""
    from anisonl.cli import ConfigError
    others = [cls.__qualname__ for cls in exception_classes()
              if cls is not ConfigError
              and not issubclass(cls, anisonl.PreconditionError)]
    assert others == []


@pytest.mark.parametrize("name", MODULES)
def test_no_handler_names_a_precondition_subclass(name):
    """``run`` catches ``PreconditionError`` itself, once: no per-command
    handler catches a subclass to rewrap it."""
    subclasses = {cls.__name__ for cls in exception_classes()
                  if issubclass(cls, anisonl.PreconditionError)}
    path = Path(anisonl.__file__).parent / f"{name}.py"
    named = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            named += [getattr(t, "id", getattr(t, "attr", None))
                      for t in types]
    assert sorted(subclasses & set(named)) == []


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    module = importlib.import_module(f"anisonl.{name}")
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            typing.get_type_hints(obj)
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)
                if inspect.isfunction(attr):
                    typing.get_type_hints(attr)
        elif inspect.isfunction(obj):
            typing.get_type_hints(obj)


# Public names no command runs, kept because each is the independent
# oracle of a path a command does run, or the case that oracle needs; a
# method is named ``module.Class.method``.
ORACLES = {
    "solver.dense_matrix": "the dense lattice operator that the FFT "
                           "stencils and the CG solve are checked on",
    "operators.eval_inf_sup": "inf-sup by enumerating linear members, the "
                              "check of the extremal closed form",
    "fields.second_difference": "delta(u, x, y) at one point, the reference "
                                "of the batched pair_deltas",
    "fields.AffineExterior": "affine data, which the lattice operator must "
                             "map to zero exactly",
    "profile.isotropic": "equal orders, where the closed forms hold",
    "geometry.theta": "the level set Theta_r of the geometry inclusions",
    "geometry.ellipse": "the ellipse of the geometry inclusions",
    "geometry.rect": "the rectangle of the geometry inclusions",
    "geometry.tilde_rect": "the tilde rectangle of the geometry inclusions",
    "geometry.AnisoSet.measure": "the closed-form measure of Theta_r and "
                                 "its kin, which the lemma checks read",
    "geometry.ScalingMap.apply": "T_r y itself, which the geometry "
                                 "inclusions and the scaling identity of "
                                 "the barrier tests map points with",
}


def library_sources():
    """``{module: source}`` of the library, ``""`` for the package."""
    return {"" if path.stem == "__init__" else path.stem: path.read_text()
            for path in SOURCE.glob("*.py")}


def module_name_table(sources):
    """Per module: its parsed tree, its top-level definitions (functions,
    classes and assigned names, each with the statement that binds it)
    and the names it imports from sibling modules, at any depth, as
    ``(module, name)``."""
    trees, defs, imports = {}, {}, {}
    for module, text in sources.items():
        trees[module] = tree = ast.parse(text)
        defs[module] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[module][stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defs[module][node.id] = stmt
        imports[module] = {
            alias.asname or alias.name: (node.module or "", alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    return trees, defs, imports


def referenced(tree):
    """Every name and attribute the tree references."""
    return {getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)} - {None}


def class_key(node, module, defs, imports):
    """``(module, class)`` of the library class that ``node``, a name or
    a string annotation, names in ``module``; None for anything else."""
    name = node.value if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else getattr(node, "id", None)
    key = (module, name) if name in defs[module] else imports[module].get(name)
    if key and isinstance(defs.get(key[0], {}).get(key[1]), ast.ClassDef):
        return key
    return None


def method_owners(key, attr, defs, imports):
    """The classes whose own ``attr`` method a reference through an
    instance of class ``key`` may run: the first definition up its
    library bases, and every override in a library subclass."""
    def bases(k):
        return [b for b in (class_key(base, k[0], defs, imports)
                            for base in defs[k[0]][k[1]].bases) if b]

    def ancestors(k):
        return {a for b in bases(k) for a in {b} | ancestors(b)}

    def defines(k):
        return any(isinstance(s, ast.FunctionDef) and s.name == attr
                   for s in defs[k[0]][k[1]].body)

    owners, up = [], [key]
    while up:
        k = up.pop(0)
        if defines(k):
            owners.append(k)
            break
        up = bases(k) + up
    return owners + [(m, name) for m in defs for name, stmt in defs[m].items()
                     if isinstance(stmt, ast.ClassDef)
                     and key in ancestors((m, name)) and defines((m, name))]


def scope_nodes(body):
    """Every node under the statements ``body`` that runs in their scope:
    a nested function or class is yielded with its decorators, defaults
    and bases, not its body."""
    todo = list(body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.FunctionDef):
            todo += node.decorator_list + node.args.defaults \
                + [d for d in node.args.kw_defaults if d is not None]
        elif isinstance(node, ast.ClassDef):
            todo += node.decorator_list + node.bases
        else:
            todo += ast.iter_child_nodes(node)


def local_classes(func, owner, outer, module, defs, imports):
    """Name -> class of the names in ``func`` whose class is known: the
    first parameter of a method of class ``owner``, a parameter annotated
    with a library class, or a local bound only to a call of one.  Names
    ``func`` does not bind keep their class in ``outer``."""
    kinds = {}
    args = func.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in func.decorator_list)
    for a in positional + args.kwonlyargs + [a for a in (args.vararg,
                                                         args.kwarg) if a]:
        key = class_key(a.annotation, module, defs, imports) \
            if a.annotation else None
        if owner and not static and a is positional[0]:
            key = owner
        kinds.setdefault(a.arg, set()).add(key)
    nodes = list(scope_nodes(func.body))
    made = {id(node.targets[0]): class_key(node.value.func, module, defs,
                                           imports)
            for node in nodes if isinstance(node, ast.Assign)
            and len(node.targets) == 1 and isinstance(node.value, ast.Call)}
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound = [(node.id, made.get(id(node)))]
        elif isinstance(node, ast.arg):                 # of a lambda
            bound = [(node.arg, None)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef,
                               ast.ExceptHandler)):
            bound = [(node.name, None)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound = [(alias.asname or alias.name.split(".")[0], None)
                     for alias in node.names]
        else:
            bound = []
        for name, key in bound:
            kinds.setdefault(name, set()).add(key)
    known = {name: k for name, k in outer.items() if name not in kinds}
    known.update({name: next(iter(keys)) for name, keys in kinds.items()
                  if len(keys) == 1 and None not in keys})
    return known


def attribute_classes(key, defs, imports):
    """Attribute -> class of the attributes of class ``key`` whose class is
    known: one annotated with a library class in the class body (which
    decides), one that ``__init__`` binds on ``self`` only to calls of one
    class, and a ``cached_property`` whose every return is a call of one
    class."""
    module = key[0]
    kinds, declared = {}, {}
    for stmt in defs[module][key[1]].body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            declared[stmt.target.id] = class_key(stmt.annotation, module,
                                                 defs, imports)
        if not isinstance(stmt, ast.FunctionDef):
            continue
        if stmt.name == "__init__" and stmt.args.args:
            me = stmt.args.args[0].arg
            for node in scope_nodes(stmt.body):
                if not isinstance(node, ast.Assign):
                    continue
                made = isinstance(node.value, ast.Call) and class_key(
                    node.value.func, module, defs, imports) or None
                for target in node.targets:
                    # only a whole target takes the call's class
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) \
                                and getattr(t.value, "id", None) == me:
                            kinds.setdefault(t.attr, set()).add(
                                made if t is target else None)
        elif any(getattr(d, "id", getattr(d, "attr", None))
                 == "cached_property" for d in stmt.decorator_list):
            kinds[stmt.name] = {
                isinstance(node.value, ast.Call) and class_key(
                    node.value.func, module, defs, imports) or None
                for node in scope_nodes(stmt.body)
                if isinstance(node, ast.Return)}
    known = {attr: next(iter(keys)) for attr, keys in kinds.items()
             if len(keys) == 1 and None not in keys}
    known.update((attr, k) for attr, k in declared.items() if k)
    return known


def method_references(tree, module, defs, imports):
    """The attributes ``tree`` references: ``(module, class, method)`` of
    each method reached through a receiver whose class is known (see
    ``local_classes``; a class name is its own receiver, and an attribute
    of a known class has the class ``attribute_classes`` gives it), and
    the bare names of the others, which may reach a method of any
    class."""
    owned, loose = set(), set()

    def receiver_class(recv, known):
        if isinstance(recv, ast.Name):
            return known.get(recv.id) or class_key(recv, module, defs,
                                                   imports)
        if isinstance(recv, ast.Attribute):
            owner = receiver_class(recv.value, known)
            return owner and attribute_classes(owner, defs, imports).get(
                recv.attr)
        return None

    def visit(body, known, owner):
        for node in scope_nodes(body):
            if isinstance(node, ast.FunctionDef):
                visit(node.body, local_classes(node, owner, known, module,
                                               defs, imports), None)
            elif isinstance(node, ast.ClassDef):
                key = (module, node.name) if node.name in defs[module] \
                    else None
                visit(node.body, known, key)
            elif isinstance(node, ast.Attribute):
                key = receiver_class(node.value, known)
                if key:
                    owned.update(k + (node.attr,) for k in method_owners(
                        key, node.attr, defs, imports))
                else:
                    loose.add(node.attr)

    visit(tree.body if isinstance(tree, ast.Module) else [tree], {}, None)
    return owned, loose


def reachable_names(trees, defs, imports, oracles):
    """``(module, name)`` of every top-level definition reached from the
    body of ``cli`` and from the oracles, following each name and
    attribute a reached definition references to the definition it
    resolves to in that module: its own, or the one it imports.  Also
    the method references of those definitions (``method_references``),
    the oracle methods among them."""
    def references(module, tree):
        for name in referenced(tree):
            if name in defs[module]:
                yield module, name
            elif name in imports[module]:
                yield imports[module][name]

    todo = list(references("cli", trees["cli"]))
    todo += [tuple(key.split(".")[:2]) for key in oracles]
    owned, loose = method_references(trees["cli"], "cli", defs, imports)
    owned |= {tuple(key.split(".")) for key in oracles if key.count(".") == 2}
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        if name in defs.get(module, {}):
            todo.extend(references(module, defs[module][name]))
            more, names = method_references(defs[module][name], module, defs,
                                            imports)
            owned |= more
            loose |= names
    return seen, owned, loose


def dead_public_names(sources, oracles):
    """The public functions, classes and methods of ``sources`` that
    ``reachable_names`` does not reach, and the oracles that name no
    definition."""
    trees, defs, imports = module_name_table(sources)
    stale = []
    for key in oracles:
        module, name, *method = key.split(".")
        stmt = defs.get(module, {}).get(name)
        if stmt is None or method and not any(
                isinstance(s, ast.FunctionDef) and s.name == method[0]
                for s in stmt.body):
            stale.append(key)
    reached, owned, loose = reachable_names(trees, defs, imports, oracles)
    dead = []
    for module in sorted(set(sources) - {""}):
        for stmt in trees[module].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    or stmt.name.startswith("_"):
                continue
            if (module, stmt.name) not in reached:
                dead.append(f"{module}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                dead += [f"{module}.{stmt.name}.{method.name}"
                         for method in stmt.body
                         if isinstance(method, ast.FunctionDef)
                         and not method.name.startswith("_")
                         and method.name not in loose
                         and (module, stmt.name, method.name) not in owned]
    return dead, stale


def test_every_public_name_is_run_or_an_oracle():
    """A public function or class that no command reaches and no oracle
    names is dead code: two such names that only call each other count
    as dead too.  So is a public method of a reached class that no
    reached definition references as an attribute: a local variable of
    the same name does not count, nor does a same-named method of
    another class when the receiver's class is known.  Every oracle
    names a definition that exists."""
    assert dead_public_names(library_sources(), ORACLES) == ([], [])


SHAPES = {
    "": "",
    "cli": """from .shapes import Box, Disc, area_of


def main(shape: Box, other):
    box = Box()
    return (box.measure() + shape.measure() + Disc().area()
            + area_of(other))


main(Box(), Disc())
""",
    "shapes": """class Box:
    def measure(self):
        return 1.0

    def scale(self):
        return self.measure()


class Disc:
    def area(self):
        return 3.0

    def measure(self):
        return self.area()

    def radius(self):
        return 1.0


def area_of(shape):
    return shape.radius()
""",
}


@pytest.mark.parametrize("oracles, dead", [
    ({}, ["shapes.Box.scale", "shapes.Disc.measure"]),
    ({"shapes.Disc.measure": "the reference measure"}, ["shapes.Box.scale"]),
])
def test_method_reached_through_another_class_is_dead(oracles, dead):
    """``Disc.measure`` is reached only through ``Box.measure`` (a local
    bound to ``Box()``, a parameter annotated ``Box``): it is dead unless
    an oracle names it.  ``Disc.radius`` is read through a receiver of
    unknown class, so it stays live."""
    assert dead_public_names(SHAPES, oracles) == (dead, [])
    assert dead_public_names(SHAPES, {"shapes.Disc.volume": ""}) == (
        ["shapes.Box.scale", "shapes.Disc.measure"], ["shapes.Disc.volume"])


LATTICES = {
    "": "",
    "cli": """from .solver import Map, Operator, Problem


def main(problem: Problem, other):
    op = Operator()
    return (problem.lattice.pair_sums() + op.lattice.matvec()
            + op.stencil.norm() + other.scale() + Map().scale())


main(Problem(), Map())
""",
    "solver": """from functools import cached_property


class Lattice:
    def pair_sums(self):
        return 1.0

    def matvec(self):
        return 2.0


class Stencil:
    def norm(self):
        return 3.0


class Map:
    def matvec(self):
        return 4.0

    def pair_sums(self):
        return 5.0

    def norm(self):
        return 6.0

    def scale(self):
        return 7.0


class Problem:
    @cached_property
    def lattice(self):
        return Lattice()


class Operator:
    lattice: Lattice

    def __init__(self):
        self.lattice, self.size = Lattice(), 1.0
        self.stencil = Stencil()
""",
}


def test_method_reached_through_a_known_attribute_is_owned():
    """A method read through an attribute whose class is known counts for
    that class only: ``Problem.lattice`` is a ``cached_property`` returning
    a ``Lattice``, ``Operator.lattice`` is annotated ``Lattice`` and
    ``Operator.stencil`` is bound to ``Stencil()`` in ``__init__``.  So the
    same-named methods of ``Map`` are dead; ``Map.scale`` is also read
    through a receiver of unknown class, so it stays live."""
    assert dead_public_names(LATTICES, {}) == (
        ["solver.Map.matvec", "solver.Map.pair_sums", "solver.Map.norm"], [])


def test_cli_reads_no_private_attribute():
    """The CLI reads library objects through their public names only."""
    tree = ast.parse((SOURCE / "cli.py").read_text())
    private = [f"{ast.unparse(node)} (line {node.lineno})"
               for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr.startswith("_")
               and not node.attr.startswith("__")]
    assert private == []


def precondition_raises(tree):
    """``(top-level function, line)`` of every ``raise PreconditionError``
    in a module, the function None at module or class level."""
    found = []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) \
                else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name == "PreconditionError":
                found.append((owner, node.lineno))
    return found


def test_cli_raises_preconditions_only_in_run():
    """A failed hypothesis is raised by the library call that measures it.
    The CLI raises PreconditionError only in ``run``, for a non-finite
    value left in a summary."""
    raises = precondition_raises(ast.parse((SOURCE / "cli.py").read_text()))
    assert raises and [r for r in raises if r[0] != "run"] == []


def test_every_lemma_check_has_a_caller():
    """Every public function and class of ``tests/lemmas.py`` is named in
    another test module: a lemma check nothing calls is dead code too."""
    tree = ast.parse((TESTS / "lemmas.py").read_text())
    public = {stmt.name for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")}
    named = set()
    for path in TESTS.glob("*.py"):
        if path.name != "lemmas.py":
            named |= {getattr(node, "id", None) or getattr(node, "attr", None)
                      for node in ast.walk(ast.parse(path.read_text()))}
    assert sorted(public - named) == []


# Defaulted parameters that no call in the library passes, each kept for
# a caller outside it.
UNPASSED_DEFAULTS = {
    "cli.main(argv)": "the console entry point reads sys.argv; the tests "
                      "pass their own arguments",
    "coverings.cz_decompose(profile)": "anisotropic tilde boxes, which no "
                                       "command selects yet (ROADMAP item 6)",
    "kernels.PowerLawKernel.__init__(mult_lo, mult_hi)": "the bounds of a "
        "callable multiplier, which the one-member CG solve tests declare",
    "profile.isotropic(lambda_lo, lambda_hi)": "the equal-order oracle "
        "profiles, at unit ellipticity unless a test sets it",
    "solver.dense_matrix(member)": "the oracle's matrix of one family member",
    "geometry.ScalingMap.apply(inverse)": "the oracle's inverse map of the "
                                          "geometry inclusions",
}


def library_defs_and_calls():
    """Every function and method of the library, nested ones too, as
    ``(module, qualname, node, cls)``, every call as ``(call, cls)``, and
    every class by name; ``cls`` is the class whose body holds the
    definition or the call."""
    defs, calls, classes = [], [], {}

    def visit(module, node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                classes[child.name] = child
                visit(module, child, f"{prefix}{child.name}.", child)
                continue
            if isinstance(child, ast.FunctionDef):
                defs.append((module, prefix + child.name, child, cls))
                visit(module, child, f"{prefix}{child.name}.", cls)
                continue
            if isinstance(child, ast.Call):
                calls.append((child, cls))
            visit(module, child, prefix, cls)

    for path in sorted(SOURCE.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), "", None)
    return defs, calls, classes


def call_targets(call, cls, defs, classes):
    """``(node, bound)`` of each definition ``call`` may run, matched by
    name; ``bound`` says the call passes the first parameter implicitly."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)

    def inits(c):
        own = [s for s in c.body
               if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
        return [(s, True) for s in own] or [
            t for base in c.bases if getattr(base, "id", None) in classes
            for t in inits(classes[base.id])]

    if name == "__init__" and isinstance(func.value, ast.Call) \
            and getattr(func.value.func, "id", None) == "super":
        return [t for base in cls.bases if getattr(base, "id", None) in classes
                for t in inits(classes[base.id])]
    targets = inits(classes[name]) if name in classes else []
    for _, _, node, owner in defs:
        if node.name != name or owner is not None and \
                isinstance(func, ast.Name):
            continue
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in node.decorator_list)
        targets.append((node, owner is not None and not static))
    return targets


def passes(call, node, bound):
    """The names of the parameters of ``node`` that ``call`` passes."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if any(isinstance(a, ast.Starred) for a in call.args):
        named = set(positional)
    else:
        named = set(positional[:len(call.args) + bound])
    for kw in call.keywords:
        if kw.arg is None:                  # **kwargs
            return named | set(positional) | {a.arg for a in args.kwonlyargs}
        named.add(kw.arg)
    return named


def unpassed_defaults():
    """``module.qualname(params)`` of each library function with
    defaulted parameters that no call in the library passes."""
    defs, calls, classes = library_defs_and_calls()
    passed = {}
    for call, cls in calls:
        for node, bound in call_targets(call, cls, defs, classes):
            passed.setdefault(id(node), set()).update(
                passes(call, node, bound))
    found = []
    for module, qualname, node, _ in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
        unpassed = [a.arg for a in defaulted
                    if a.arg not in passed.get(id(node), set())]
        if unpassed:
            found.append(f"{module}.{qualname}({', '.join(unpassed)})")
    return sorted(found)


def test_every_default_is_passed_by_the_library():
    """A default no call in the library overrides is one value in use: a
    module constant, or a required argument where every caller fills it.
    The allowlist names each exception once, and every entry still
    applies."""
    assert unpassed_defaults() == sorted(UNPASSED_DEFAULTS)


def _grid_points_of(node):
    """The receiver source of a ``<field>.grid_points()`` call, else None."""
    if isinstance(node, ast.Call) and not node.args \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "grid_points":
        return ast.unparse(node.func.value)
    return None


def own_lattice_evals(tree):
    """Names of the functions that pass a field's own ``grid_points()`` to
    that field's ``eval``, directly or through a local name: a read of the
    field's own nodes, which its ``values`` hold exactly."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        lattice = {target.id: _grid_points_of(node.value)
                   for node in ast.walk(func) if isinstance(node, ast.Assign)
                   for target in node.targets
                   if isinstance(target, ast.Name)
                   and _grid_points_of(node.value)}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "eval"):
                continue
            arg = node.args[0]
            source = lattice.get(arg.id) if isinstance(arg, ast.Name) \
                else _grid_points_of(arg)
            if source == ast.unparse(node.func.value):
                found.add(func.name)
    return sorted(found)


OWN_LATTICE_READS = """
def direct(u):
    return u.eval(u.grid_points())

def named(u):
    pts = u.grid_points()
    return u.eval(pts)

def other_field(u, w):
    pts = w.grid_points()
    return u.eval(pts) + u.eval(w.grid_points())

def off_lattice(u):
    return u.eval(0.5 * u.grid_points())
"""


def test_own_lattice_read_detector():
    assert own_lattice_evals(ast.parse(OWN_LATTICE_READS)) == [
        "direct", "named"]


@pytest.mark.parametrize("name", MODULES)
def test_no_field_is_evaluated_at_its_own_lattice(name):
    """A grid field's own nodes are read from its ``values``: multilinear
    interpolation there can miss the lattice value by an ulp when the
    spacing is not a power of two."""
    path = SOURCE / f"{name}.py"
    assert own_lattice_evals(ast.parse(path.read_text())) == []


# the library's random draws, each with the ROADMAP item that retires it
# (item 19 lists them all)
RANDOM_DRAWS = {
    "quadrature._shell_rng": 14,
    "barriers.annulus_points": 16,
    "cli._cmd_cz": 6,
    "fields.estimate_c11_many": 9,
    "experiments.kernel_modulus_check": 19,
}


def random_reads(tree, module):
    """``module.function`` of each function whose body names ``random``
    (``np.random``, ``rng.random``, an import of it), or ``module`` for
    such a name outside every function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or f"{module}.{child.name}")
                continue
            names = []
            if isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [getattr(child, "module", None) or ""] + [
                    a.name for a in child.names]
            if any("random" in n.split(".") for n in names):
                found.add(owner or module)
            visit(child, owner)

    visit(tree, None)
    return sorted(found)


RANDOM_READS = """
import numpy as np
from numpy.random import default_rng

def seeded(k):
    return np.random.default_rng(k).normal()

def drawn(rng):
    def inner():
        return rng.random()
    return inner

def plain(x):
    return x + 1
"""


def test_random_read_detector():
    assert random_reads(ast.parse(RANDOM_READS), "m") == [
        "m", "m.drawn", "m.seeded"]


def test_random_draws_are_the_allowlist():
    """Each draw left in the library is allowlisted with the item that
    retires it; the ABP detachment, read off the lattice, draws none."""
    found = sorted(set().union(*(
        random_reads(ast.parse((SOURCE / f"{name}.py").read_text()), name)
        for name in MODULES)))
    assert found == sorted(RANDOM_DRAWS)
