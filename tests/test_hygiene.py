"""Every name a package or test module imports is used in it or re-exported,
every top-level function and class of the package is used by the package,
so is every member of a package class unless a named file outside the
package reads it, no package module reads the environment, no package
module but ``blocks`` touches threads or CPU affinity, only ``model``
sets NumPy's buffer size, and no package code outside an ``__init__``
rebinds a model array.

No linter ships with the project, so this parses each module: an import
that nothing reads, and that the module's ``__all__`` does not list, is
dead code, and so is a package function, class, method, property,
dataclass field or ``__init__``-bound attribute that only tests read.
Settings come from the config file and ``--set`` alone, so an environment
variable read by the package would be a hidden setting.  ``Vae.__init__``
builds every checkpointed array once, from ``model.state_shapes``, and the
layers hold those arrays: an attribute rebound to a new array would detach
it from the flat parameter vector and from the model's state.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "dartclean"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported_names(tree)) - used - exported_names(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def read_names(node):
    """Names ``node`` reads: each ``Name`` load and each ``Attribute``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_used_by_the_package(path):
    statements = [(module, node, read_names(node)) for module in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(module.read_text()).body]
    unused = []
    for module, node, _ in statements:
        if module == path and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            # a reference from inside the definition's own body does not count
            if not any(node.name in names for _, other, names in statements
                       if other is not node):
                unused.append(node.name)
    assert not unused, f"no package code outside its own body uses {path.name}'s {unused}"


def member_reads(node):
    """Each attribute ``node`` loads, and each name it hands ``getattr`` or
    ``hasattr`` as a string, once per read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id in ("getattr", "hasattr") and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant)):
            yield sub.args[1].value


def class_members(tree):
    """``(Class.member, body)`` of each method and property (``body`` is its
    definition), dataclass field and ``__init__``-bound ``self`` attribute
    (``body`` is None) of the module's classes.  Dunder methods run
    implicitly, so they are left out."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any("dataclass" in read_names(d) for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                yield f"{cls.name}.{node.name}", node
            elif dataclass and isinstance(node, ast.AnnAssign):
                yield f"{cls.name}.{node.target.id}", None
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                attrs = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                         and isinstance(sub.ctx, ast.Store)
                         and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
                yield from ((f"{cls.name}.{attr}", None) for attr in sorted(attrs))


# each member name that two or more package classes define, with the classes
# whose member package code reads under that name: a read of ``x.step_mask``
# is credited to these alone, so a defining class left out counts as unread
SHARED = {
    "backward": {"BatchNorm", "Dense"},
    "decayed": {"Adam", "Vae"},
    "eps": {"BatchNorm", "LatentState"},
    "forward": {"BatchNorm", "Dense"},
    "kl": {"EpochRecord", "LossBreakdown"},
    "lam_mean": {"LossBreakdown", "TrainConfig"},
    "lam_temporal": {"LossBreakdown", "TrainConfig"},
    "log": {"DivergenceError", "RefineResult"},
    "mean": {"EpochRecord", "LossBreakdown", "NormStats"},
    "params": {"Adam", "Vae"},
    "recon": {"EpochRecord", "InferPass", "LossBreakdown"},
    "seed": {"SynthSpec", "TrainConfig"},
    "segments": {"AnomalyMasks", "CleanResult"},
    "spike": {"AnomalyMasks", "CleanedOutput"},
    "step": {"Adam", "AnomalyMasks", "CleanedOutput"},
    "step_mask": {"InferPass", "RefineResult"},
    "temporal": {"EpochRecord", "LossBreakdown"},
    "timestamps": {"CleanedOutput", "GroundTruth", "RawSeries"},
    "total": {"EpochRecord", "LossBreakdown"},
    "values": {"NormalizedSeries", "RawSeries"},
    "weight_decay": {"Adam", "TrainConfig"},
    "window": {"ModelConfig", "SmoothConfig"},
    "z": {"InferPass", "LatentState"},
}


def package_members():
    """Every package class member mapped to the number of package reads of
    its name, less those from inside its own definition; a name in
    ``SHARED`` credits its reads only to the classes listed for it."""
    trees = [ast.parse(module.read_text()) for module in sorted(PACKAGE.glob("*.py"))]
    reads = Counter(name for tree in trees for name in member_reads(tree))
    counts = {}
    for tree in trees:
        for member, body in class_members(tree):
            cls, _, name = member.partition(".")
            credited = reads[name] if cls in SHARED.get(name, {cls}) else 0
            counts[member] = credited - (list(member_reads(body)).count(name) if body else 0)
    return counts


def test_shared_lists_each_name_two_classes_define():
    definers = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for member, _ in class_members(ast.parse(module.read_text())):
            cls, _, name = member.partition(".")
            definers.setdefault(name, set()).add(cls)
    shared = {name for name, classes in definers.items() if len(classes) > 1}
    assert set(SHARED) == shared, f"SHARED misses {sorted(shared - set(SHARED))}, " \
        f"or lists names no longer shared: {sorted(set(SHARED) - shared)}"
    for name, classes in SHARED.items():
        assert classes <= definers[name], f"SHARED[{name!r}] lists non-definers"


# members no package code reads, each with the file outside the package that
# reads it: the acceptance gate, the benchmark's work counter and the text
# layer's row-by-row oracle
READ_OUTSIDE = {
    "Vae.trainable": "tests/test_acceptance.py",
    "CleanResult.spike_mask": "tests/test_acceptance.py",
    "CleanResult.step_mask": "tests/test_acceptance.py",
    "CleanResult.refine_history": "tests/test_acceptance.py",
    "GroundTruth.spike_events": "tests/test_acceptance.py",
    "GroundTruth.step_magnitudes": "tests/test_acceptance.py",
    "EpochRecord.val_recon": "tests/test_acceptance.py",
    "Dense.out_dim": "perfbench/spans.py",
    "ParseError.line_number": "tests/test_text_io.py",
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_member_is_read_by_the_package(path):
    reads = package_members()
    unread = [member for member, _ in class_members(ast.parse(path.read_text()))
              if reads[member] <= 0 and member not in READ_OUTSIDE]
    assert not unread, f"no package code outside its own body reads {path.name}'s {unread}"


@pytest.mark.parametrize("member", sorted(READ_OUTSIDE))
def test_each_member_read_outside_is_still_read_there_alone(member):
    reads = package_members()
    reader = READ_OUTSIDE[member]
    assert member in reads, f"{member} is no longer defined"
    assert reads[member] <= 0, f"package code reads {member}; drop it from READ_OUTSIDE"
    assert member.partition(".")[2] in set(member_reads(ast.parse((ROOT / reader).read_text()))), \
        f"{reader} no longer reads {member}"


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_package_module_reads_the_environment(path):
    tree = ast.parse(path.read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= set(imported_names(tree))
    assert not used & ENVIRONMENT_READERS, f"{path.name} reads the environment"


CONCURRENCY_MODULES = {"threading", "concurrent", "contextvars"}


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "blocks.py"], ids=lambda p: p.name)
def test_concurrency_lives_in_blocks_alone(path):
    # threads, their context and their CPU placement are blocks.map_blocks's
    # business: a module that starts or pins threads of its own would
    # escape its ordered results and its byte identity across CPU counts
    tree = ast.parse(path.read_text())
    modules = {alias.name.partition(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not modules & CONCURRENCY_MODULES, f"{path.name} imports {modules & CONCURRENCY_MODULES}"
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "sched_setaffinity" not in used | set(imported_names(tree)), \
        f"{path.name} sets a CPU affinity"


def called(node, name):
    """Whether ``node`` is a call of ``name``, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_buffer_size_is_set_in_infer_scopes_alone(path):
    # NumPy's ufunc buffer size may set the order in which a reduction
    # sums, so only the infer forward, whose only reductions are finite
    # checks, changes it, and only as the first statement of a bare
    # ``with np.errstate():``, which restores the caller's on the way out
    tree = ast.parse(path.read_text())
    mentions = sum(1 for node in ast.walk(tree)
                   if "setbufsize" in (getattr(node, "id", None), getattr(node, "attr", None)))
    mentions += list(imported_names(tree)).count("setbufsize")
    scoped = [node for node in ast.walk(tree) if isinstance(node, ast.With)
              and len(node.items) == 1 and called(node.items[0].context_expr, "errstate")
              and not (node.items[0].context_expr.args or node.items[0].context_expr.keywords)
              and isinstance(node.body[0], ast.Expr) and called(node.body[0].value, "setbufsize")]
    assert mentions == len(scoped), \
        f"{path.name} names setbufsize outside the first statement of a bare np.errstate()"
    assert bool(scoped) == (path.name == "model.py"), f"{path.name}: {len(scoped)} scopes"


# attributes that hold a model's checkpointed arrays
MODEL_ARRAYS = {"W", "b", "gamma", "shift", "running_mean", "running_var", "beta", "dec_alpha"}


def stored_attributes(node):
    """Each attribute an assignment statement ``node`` binds, however deep
    in a tuple target."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                yield sub.attr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_package_code_rebinds_a_model_array(path):
    tree = ast.parse(path.read_text())
    inside_init = {id(sub) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "__init__"
                   for sub in ast.walk(node)}
    rebound = [(attr, node.lineno) for node in ast.walk(tree)
               if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
               and id(node) not in inside_init
               for attr in stored_attributes(node) if attr in MODEL_ARRAYS]
    assert not rebound, f"{path.name} rebinds model arrays outside __init__: {rebound}"


def defaulted_parameters(tree, module):
    """``(name, called, parameter, position)`` of each parameter with a
    default of the module's functions and methods.  ``name`` is
    ``module.function.parameter`` or ``Class.method.parameter``; ``called``
    is the name a call uses, the class's own for its ``__init__``;
    ``position`` is the parameter's index among a call's positional
    arguments (past ``self``), or None if it is keyword-only."""
    functions = [(module, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(cls.name, node, 0 if any("staticmethod" in read_names(d)
                                            for d in node.decorator_list) else 1)
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    for owner, node, bound in functions:
        called = owner if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        for index in range(len(positional) - len(node.args.defaults), len(positional)):
            arg = positional[index].arg
            yield f"{owner}.{node.name}.{arg}", called, arg, index - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{owner}.{node.name}.{arg.arg}", called, arg.arg, None


def passes(tree, called, parameter, position):
    """Whether some call in ``tree`` to the name ``called`` passes
    ``parameter``: by keyword, at ``position``, or through ``*`` or ``**``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != called:
            continue
        if any(k.arg in (parameter, None) for k in node.keywords):
            return True
        if position is not None and (len(node.args) > position or any(
                isinstance(arg, ast.Starred) for arg in node.args)):
            return True
    return False


def package_parameters():
    """Each defaulted parameter of the package by name: its ``(called,
    parameter, position)`` and whether some package call passes it."""
    trees = {module.stem: ast.parse(module.read_text()) for module in sorted(PACKAGE.glob("*.py"))}
    return {name: (call, any(passes(tree, *call) for tree in trees.values()))
            for module, tree in trees.items()
            for name, *call in defaulted_parameters(tree, module)}


# defaulted parameters no package call passes, each with the file outside
# the package that passes it: the benchmark's driver and accuracy figure,
# the acceptance gate's gradient check and the decoder tests
SET_OUTSIDE = {
    "cli.main.argv": "perfbench/workloads.py",
    "metrics.spike_f1.tolerance": "perfbench/workloads.py",
    "Vae.loss_and_grads.eps": "tests/test_acceptance.py",
    "Vae.infer.prev_z": "tests/test_model.py",
    "Vae.infer.blend_alpha": "tests/test_model.py",
}


def test_every_defaulted_parameter_is_passed_by_the_package():
    # a parameter that only tests pass is a mode the program never runs
    unset = [name for name, (_, passed) in package_parameters().items()
             if not passed and name not in SET_OUTSIDE]
    assert not unset, f"no package call passes {unset}"


@pytest.mark.parametrize("name", sorted(SET_OUTSIDE))
def test_each_parameter_set_outside_is_still_set_there_alone(name):
    parameters = package_parameters()
    assert name in parameters, f"{name} is no longer a defaulted parameter"
    call, passed = parameters[name]
    assert not passed, f"package code passes {name}; drop it from SET_OUTSIDE"
    setter = SET_OUTSIDE[name]
    assert passes(ast.parse((ROOT / setter).read_text()), *call), \
        f"{setter} no longer passes {name}"
