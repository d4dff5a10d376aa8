"""Every function, method and class in `src/tensordti` has a caller in
`src/`, apart from the few that only the tests use as oracles."""

import ast
import importlib
from pathlib import Path

import tensordti

SRC = Path(tensordti.__file__).parent
BENCH_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
BENCH_TRACER = BENCH_CHECKS.with_name("tracer.py")
BENCH_WORKLOADS = BENCH_CHECKS.with_name("workloads.py")

# traced names that no longer resolve, each waiting on a benchmark mend:
# the predictions table moved to `screening`, and the exact baselines
# replaced the Monte-Carlo ones
STALE_TRACED = {
    "training.load_predictions",
    "training.save_predictions",
    "screening.random_baseline",
    "screening.random_topk_baseline",
}

# kept for the tests alone: each is the reference a tested path is checked against
TEST_ORACLES = {
    "nn.grad_check",
    "nn.Tape.sum_all",
    "tokenizer.SmilesTokenizer.detokenize",
    "model.run_encoder",
    # the JSONL writer: JSONL is the interchange format, tests write JSONL
    # twins of binary stores with it, and perfbench's screening set-up writes
    # its fit data with it
    "embeddings.save_embeddings_jsonl",
    # the per-pair heads: perfbench's prediction check calls them as its oracle
    "model.interaction_logit",
    "model.confidence",
}


def definitions(node, prefix):
    """(qualified name, node) of every def and class under `node`; methods
    and nested defs are qualified by what encloses them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
            yield from definitions(child, f"{prefix}.{child.name}")
        else:
            yield from definitions(child, prefix)


def overrides(qualname):
    """Whether `module.Class.method` overrides an inherited method, which its
    base class calls."""
    module, *path = qualname.split(".")
    if len(path) != 2:
        return False
    cls = getattr(importlib.import_module(f"tensordti.{module}"), path[0], None)
    return isinstance(cls, type) and any(hasattr(base, path[1]) for base in cls.__mro__[1:])


def test_every_definition_is_referenced_in_src_outside_itself():
    """A reference is a name or an attribute spelled like the definition
    (an import is not one), anywhere in `src/` but inside the definition's
    own lines. An override counts as called by its base class."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SRC.glob("*.py")}
    references: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((module, node.lineno))

    defined, dead = set(), set()
    for module, tree in trees.items():
        for qualname, node in definitions(tree, module):
            defined.add(qualname)
            if node.name.startswith("__") and node.name.endswith("__") or overrides(qualname):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in inside for m, line in references.get(node.name, ())):
                dead.add(qualname)

    assert TEST_ORACLES <= defined, f"oracles no longer defined: {sorted(TEST_ORACLES - defined)}"
    assert sorted(dead - TEST_ORACLES) == []


def test_every_tensordti_name_the_benchmark_reads_exists():
    """perfbench/workloads.py and checks.py import `tensordti` modules and
    read `module.<name>` off them (`synthetic.gen_synthetic`, `pipeline.split`,
    `model.interaction_logit`, ...); each must exist, or the benchmark's
    set-up or checks fail on every run."""
    read = set()
    for path in (BENCH_WORKLOADS, BENCH_CHECKS):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "tensordti"
            for alias in node.names
        }
        read |= {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    assert {("synthetic", "gen_synthetic"), ("pipeline", "split"), ("embeddings", "save_interactions"),
            ("model", "interaction_logit"), ("model", "load_checkpoint")} <= read
    modules = {m: importlib.import_module(f"tensordti.{m}") for m, _ in read}
    assert sorted(f"{m}.{name}" for m, name in read if not callable(getattr(modules[m], name, None))) == []


# members the benchmark uses on the objects those names return
BENCH_MEMBERS = {
    "embeddings.EmbeddingStore": ("add", "get", "matrix"),
    "tokenizer.SmilesTokenizer": ("tokenize", "pad_mask"),
    "synthetic.SyntheticData": ("write",),
    "embeddings.InteractionRecord": ("drug_id", "target_id", "pocket_id", "split"),
}


def test_every_member_the_benchmark_uses_on_returned_objects_exists():
    missing = []
    for qualname, members in BENCH_MEMBERS.items():
        module, name = qualname.split(".")
        cls = getattr(importlib.import_module(f"tensordti.{module}"), name)
        fields = getattr(cls, "__dataclass_fields__", {})
        missing += [f"{qualname}.{m}" for m in members if not (callable(getattr(cls, m, None)) or m in fields)]
    assert missing == []


def test_every_name_the_benchmark_traces_resolves_but_the_known_stale_ones():
    """perfbench/tracer.py wraps `module.qualname` targets and reports a
    name that does not resolve as `absent`; a rename in `src/` must not
    add another."""
    tree = ast.parse(BENCH_TRACER.read_text(encoding="utf-8"), str(BENCH_TRACER))
    lists = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & {"TARGETS", "SETUP_TARGETS"}
    ]
    assert len(lists) == 2
    targets = [(entry.elts[0].value, entry.elts[1].value) for block in lists for entry in block.elts]
    assert targets

    def resolves(module_name, qualname):
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        return owner is not None

    unresolved = {
        f"{module.removeprefix('tensordti.')}.{qualname}"
        for module, qualname in targets
        if not resolves(module, qualname)
    }
    assert sorted(unresolved - STALE_TRACED) == []
