"""What `src/cohsum` exposes: no public name without a caller, no lost trace target.

The trace targets are those of `perfbench/tracer.py`, loaded from its file,
and every traced SGD step runs inside a traced backward walk.
"""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np

from cohsum import cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cohsum").glob("*.py"))

# public names that no code in src/ uses yet, each with the reason it stays
ALLOWED_UNREFERENCED = {
    "coherence.pairwise_accuracy": "waits for the planned evaluate-coherence command",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read as identifiers, attributes or import aliases; strings and docstrings do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_function_and_class_in_src_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    unreferenced = {f"{module}.{name}" for module, tree in trees.items()
                    for name in _public_definitions(tree) if name not in referenced}
    assert unreferenced == set(ALLOWED_UNREFERENCED)


def _references(node, name: str, module: str, func=None) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each reference to `name` under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    found = []
    if name in (getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None)):
        found.append((module, func))
    for child in ast.iter_child_nodes(node):
        found += _references(child, name, module, func)
    return found


def _called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def _sigmoids(node, module: str, func=None) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each `exp` of a `log_sigmoid_np` call."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    found = []
    if _called(node, "exp") and any(_called(inner, "log_sigmoid_np")
                                    for arg in node.args for inner in ast.walk(arg)):
        found.append((module, func))
    for child in ast.iter_child_nodes(node):
        found += _sigmoids(child, module, func)
    return found


def test_the_sigmoid_guard_sees_exp_of_a_log_sigmoid():
    sigmoids = ["p = np.exp(nm.log_sigmoid_np(z))", "p = float(np.exp(log_sigmoid_np(-z)))",
                "p = math.exp(nm.log_sigmoid_np(z) + 0.0)"]
    for source in sigmoids:
        assert _sigmoids(ast.parse(f"def f():\n    {source}"), "m"), source
    others = ["p = nm.sigmoid_np(z)", "lp = nm.log_sigmoid_np(z)", "e = np.exp(z)"]
    for source in others:
        assert not _sigmoids(ast.parse(f"def f():\n    {source}"), "m"), source


def test_one_function_computes_log_sigmoid_for_every_policy_decision():
    # pretraining, the REINFORCE surrogate, sampling and beam search all score a
    # decision with log sigmoid(+-z); numeric.log_sigmoid_np is that formula, and
    # numeric.sigmoid_np the one sigmoid taken from it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    users = [ref for module, tree in trees.items()
             for ref in _references(tree, "logaddexp", module)]
    assert users == [("numeric", "log_sigmoid_np")]
    sigmoids = [ref for module, tree in trees.items() for ref in _sigmoids(tree, module)]
    assert sigmoids == [("numeric", "sigmoid_np")]


def _reads_attribute(tree: ast.Module, attr: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(tree))


def test_the_sources_guard_sees_every_read_of_the_attribute():
    reads = ["params.sources.get(name)", "source = params.sources[name]",
             "for name, s in store.sources.items(): pass", "n = len(self.sources)"]
    for source in reads:
        assert _reads_attribute(ast.parse(source), "sources"), source
    others = ["sources = {}", "def sources(): pass", "name = 'sources'"]
    for source in others:
        assert not _reads_attribute(ast.parse(source), "sources"), source


def test_only_numeric_reads_where_a_row_selected_tensor_came_from():
    # a row-selected tensor's whole shape and file are numeric's business: the
    # loader checks the shape against the model's layout, the saver writes it whole
    readers = [path.stem for path in SOURCES
               if _reads_attribute(ast.parse(path.read_text(encoding="utf-8")), "sources")]
    assert readers == ["numeric"]


# positional arguments of each checkpoint call; the benchmark's tracer reads the
# last one as the checkpoint's path, so everything after the path goes by keyword
CHECKPOINT_POSITIONALS = {"load_checkpoint": 1, "save_checkpoint": 2}


def _checkpoint_calls(tree: ast.Module) -> list[tuple[str, bool]]:
    """(function, whether its path is the last positional argument) of each checkpoint call."""
    return [(name, not any(isinstance(arg, ast.Starred) for arg in node.args)
             and len(node.args) == count and "path" not in [kw.arg for kw in node.keywords])
            for node in ast.walk(tree) for name, count in CHECKPOINT_POSITIONALS.items()
            if _called(node, name)]


def test_the_checkpoint_call_guard_sees_a_path_that_is_not_last():
    misplaced = ["load_checkpoint(path, {'embed': rows})", "nm.load_checkpoint(path=p)",
                 "load_checkpoint(*args)", "save_checkpoint(params, path=p)",
                 "save_checkpoint(params, p, extra)"]
    for source in misplaced:
        assert _checkpoint_calls(ast.parse(source)) == [(source.split("(")[0].split(".")[-1],
                                                         False)], source
    placed = ["load_checkpoint(p, rows={'embed': rows}, layout=l)", "nm.save_checkpoint(params, p)"]
    for source in placed:
        assert [ok for _, ok in _checkpoint_calls(ast.parse(source))] == [True], source


def test_every_checkpoint_call_in_src_passes_the_path_last():
    calls = [call for path in SOURCES
             for call in _checkpoint_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert {name for name, _ in calls} == set(CHECKPOINT_POSITIONALS)
    assert all(ok for _, ok in calls), calls


def _token_joins(node, module: str, func=None, parent=None) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each place under node that joins `.tokens` lists.

    A `.tokens` read joins when it is iterated (by a loop or a comprehension),
    extended by, added with `+` or `+=`, built into a list of token lists, or
    passed to `chain`, `from_iterable` or `sum`.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    found = []
    if isinstance(node, ast.Attribute) and node.attr == "tokens" and (
            isinstance(parent, (ast.For, ast.comprehension)) and node is parent.iter
            or isinstance(parent, (ast.BinOp, ast.AugAssign)) and isinstance(parent.op, ast.Add)
            or isinstance(parent, (ast.ListComp, ast.GeneratorExp)) and node is parent.elt
            or isinstance(parent, ast.Call) and node in parent.args
            and getattr(parent.func, "attr", getattr(parent.func, "id", None))
            in ("extend", "chain", "from_iterable", "sum")):
        found.append((module, func))
    for child in ast.iter_child_nodes(node):
        found += _token_joins(child, module, func, node)
    return found


def test_the_token_join_guard_sees_every_form_of_a_join():
    joins = ["out.extend(s.tokens)", "out += s.tokens", "out = a.tokens + b.tokens",
             "for t in s.tokens: out.append(t)", "out = [t for s in x for t in s.tokens]",
             "out = list(chain.from_iterable(s.tokens for s in x))",
             "out = sum([s.tokens for s in x], [])"]
    for source in joins:
        assert _token_joins(ast.parse(f"def f():\n    {source}"), "m"), source
    others = ["n = len(s.tokens)", "counts.update(s.tokens)", "kept = [s for s in x if s.tokens]"]
    for source in others:
        assert not _token_joins(ast.parse(f"def f():\n    {source}"), "m"), source


def test_one_function_joins_the_tokens_of_sentences():
    # the oracle, the final reward, the highlights and evaluate's system summaries
    # are each read as their sentences' tokens in order; corpus.tokens_of joins them
    joins = [ref for path in SOURCES
             for ref in _token_joins(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert joins == [("corpus", "tokens_of")]


def _reads(node, name: str, module: str, func=None) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each read of `name` under node, not its definition.

    A read is a call, any other use of the name or of an attribute of that
    name, or an import of it.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    found = []
    if name in (getattr(node, "id", None), getattr(node, "attr", None)) or (
            isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == name):
        found.append((module, func))
    for child in ast.iter_child_nodes(node):
        found += _reads(child, name, module, func)
    return found


def test_the_encode_guard_sees_every_read_of_encode_sentence():
    reads = ["ids = cp.encode_sentence(tokens, rows, 10)", "ids = encode_sentence(t, d, n)",
             "out = list(map(cp.encode_sentence, texts))", "encode = encode_sentence",
             "from .corpus import encode_sentence",
             "from cohsum.corpus import encode_sentence as e"]
    for source in reads:
        assert _reads(ast.parse(f"def f():\n    {source}"), "encode_sentence", "m") == [
            ("m", "f")], source
    others = ["def encode_sentence(tokens, ids, n):\n    pass", "cp.encode_sentences(s, l, n)",
              "name = 'encode_sentence'", "encode_sentence_ids = 1"]
    for source in others:
        assert not _reads(ast.parse(source), "encode_sentence", "m"), source


def test_one_function_encodes_the_sentences_of_a_corpus():
    # every model stage encodes its corpus with corpus.encode_as_rows, straight
    # to rows of its table; score-coherence streams its pairs and encodes each
    # line with the vocabulary's ids
    reads = [ref for path in SOURCES
             for ref in _reads(ast.parse(path.read_text(encoding="utf-8")), "encode_sentence",
                               path.stem)]
    assert reads == [("cli", "_coherence_pairs"), ("corpus", "encode_as_rows")]


def _rouge_math(node, module: str, func=None) -> list[tuple[str, str, str]]:
    """(kind, module, innermost enclosing function) of each LCS step and guarded division under node.

    The step is `(v + u) | (v - u)`; a guarded division is `x / y if ... else ...`,
    the form of every ROUGE precision, recall and F1.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    found = []
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Sub)):
        found.append(("lcs step", module, func))
    if isinstance(node, ast.IfExp) and isinstance(node.body, ast.BinOp) and isinstance(
            node.body.op, ast.Div):
        found.append(("guarded division", module, func))
    for child in ast.iter_child_nodes(node):
        found += _rouge_math(child, module, func)
    return found


def test_the_rouge_math_guard_sees_a_step_and_a_guarded_division():
    for source, kind in [("v = ((v + u) | (v - u)) & full", "lcs step"),
                         ("s = (a + b) | (a - b)", "lcs step"),
                         ("r = m / t if t > 0 else 0.0", "guarded division"),
                         ("f = 2.0 * p * r / d if d else 0.0", "guarded division")]:
        assert [k for k, _, _ in _rouge_math(ast.parse(f"def f():\n    {source}"), "m")] == [kind]
    for source in ["v = (v + u) & full", "x = a | b", "r = m / t", "y = 1 if ok else 0"]:
        assert not _rouge_math(ast.parse(f"def f():\n    {source}"), "m"), source


def test_one_function_steps_the_lcs_and_two_divide_for_every_rouge_score():
    # rouge_n, rouge_l and the greedy oracle's incremental scores all reach
    # precision, recall and F1 through rouge.overlap_pr and rouge.f1_score, and
    # lcs_length and the oracle step the LCS state through rouge.lcs_step
    found = sorted({ref for path in SOURCES
                    for ref in _rouge_math(ast.parse(path.read_text(encoding="utf-8")), path.stem)})
    assert found == [("guarded division", "rouge", "f1_score"),
                     ("guarded division", "rouge", "overlap_pr"),
                     ("lcs step", "rouge", "lcs_step")]


def _dense_weight_gradients(tree: ast.Module) -> list[int]:
    """Lines of each `_accumulate` call whose gradient argument is an `<x>.T @ ...` product."""
    return [node.lineno for node in ast.walk(tree)
            if _called(node, "_accumulate") and len(node.args) > 1
            and isinstance(node.args[1], ast.BinOp) and isinstance(node.args[1].op, ast.MatMult)
            and isinstance(node.args[1].left, ast.Attribute) and node.args[1].left.attr == "T"]


def test_the_weight_gradient_guard_sees_a_dense_product():
    dense = ["_accumulate(w, x.T @ g)", "nm._accumulate(w, (r * prev).T @ g)",
             "_accumulate(b, a2.T @ g.reshape(-1, n))"]
    for source in dense:
        assert _dense_weight_gradients(ast.parse(source)), source
    others = ["_accumulate(x, g @ w.T)", "_accumulate(w, _Product(x, g))",
              "dw = x.T @ g", "_accumulate(b, g.sum(axis=0))"]
    for source in others:
        assert not _dense_weight_gradients(ast.parse(source)), source


def test_no_weight_gradient_in_src_is_built_dense_before_it_is_accumulated():
    # an a.T @ g weight gradient goes to `_accumulate` as `numeric._Product(a, g)`,
    # which adds it into a gradient, or steps with it, a row block at a time
    found = {path.stem: lines for path in SOURCES
             if (lines := _dense_weight_gradients(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}


def _accumulate_calls_beyond_tensor_and_gradient(tree: ast.Module) -> list[int]:
    """Lines of each `_accumulate` call with more than two arguments or with a keyword."""
    return [node.lineno for node in ast.walk(tree)
            if _called(node, "_accumulate") and (len(node.args) > 2 or node.keywords)]


def test_the_accumulate_signature_guard_sees_a_third_argument_or_a_keyword():
    for source in ["_accumulate(x, g, True)", "nm._accumulate(x, g, owned=True)",
                   "_accumulate(x, g=g)", "_accumulate(*args, **kwargs)"]:
        assert _accumulate_calls_beyond_tensor_and_gradient(ast.parse(source)), source
    for source in ["_accumulate(x, g)", "nm._accumulate(w, _Product(x, g))", "accumulate(x, g, 1)"]:
        assert not _accumulate_calls_beyond_tensor_and_gradient(ast.parse(source)), source


def test_every_accumulate_call_in_src_passes_only_the_tensor_and_its_gradient():
    # one owner per gradient buffer: `_accumulate` copies every first dense
    # gradient, and no flag lets a caller hand over a buffer that another tensor holds
    found = {path.stem: lines for path in SOURCES
             if (lines := _accumulate_calls_beyond_tensor_and_gradient(
                 ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_trace_target_exists():
    t = _tracer_module().Tracer("surface")
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()


def _tiny_stages(tmp_path) -> dict:
    """argv of train-coherence, pretrain and train-rnes at tiny geometry, by trace stage."""
    rng = np.random.default_rng(0)
    words = ["river", "stone", "wind", "light", "cloud", "branch", "valley", "shore"]
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(4):
            sentences = [" ".join(rng.choice(words, size=4)) for _ in range(5)]
            fh.write(json.dumps({"id": f"d{i}", "sentences": sentences,
                                 "highlights": sentences[:1]}) + "\n")
    c, v = str(corpus), str(tmp_path / "vocab.txt")
    coh, pre = str(tmp_path / "coh.ckpt"), str(tmp_path / "pre.ckpt")
    assert cli.run(["preprocess", "--corpus", c, "--out", v]) == 0
    return {
        "coh_train": ["train-coherence", "--corpus", c, "--vocab", v, "--out", coh,
                      "--max-tokens", "10", "--embed-dim", "6", "--filters", "4", "--fc", "8",
                      "--epochs", "1"],
        "pretrain": ["pretrain", "--corpus", c, "--vocab", v, "--out", pre, "--max-tokens", "10",
                     "--embed-dim", "6", "--kernels", "2,3", "--filters", "4,4",
                     "--gru-hidden", "4", "--doc-dim", "6", "--mlp", "8,4", "--epochs", "1"],
        "rl": ["train-rnes", "--corpus", c, "--vocab", v, "--pretrain-checkpoint", pre,
               "--coherence-checkpoint", coh, "--out", str(tmp_path / "policy.ckpt"),
               "--steps", "2"],
    }


def test_every_sgd_step_span_is_a_child_of_a_gradients_span(tmp_path):
    # each parameter steps inside the backward walk, so the self time of
    # `numeric.gradients` stays backward and that of `numeric.sgd_step` the update
    tracer = _tracer_module()
    for stage, argv in _tiny_stages(tmp_path).items():
        t = tracer.Tracer(stage)
        with t:
            assert cli.run(argv) == 0, stage
        assert t.missing == []
        parents = [t.spans[span[3]][0] if span[3] >= 0 else None
                   for span in t.spans if span[0] == "numeric.sgd_step"]
        assert parents and set(parents) == {"numeric.gradients"}, stage


def test_traced_train_rnes_counts_the_bytes_of_every_checkpoint_it_reads_and_writes(tmp_path):
    # the tracer reads a checkpoint's path as the last positional argument, so
    # the row selection of the coherence load must be passed by keyword
    tracer = _tracer_module()
    stages = _tiny_stages(tmp_path)
    for argv in (stages["coh_train"], stages["pretrain"]):
        assert cli.run(argv) == 0
    t = tracer.Tracer("rl")
    with t:
        assert cli.run(stages["rl"]) == 0
    loads = [span for span in t.spans if span[0] == "numeric.load_checkpoint"]
    assert len(loads) == 2
    files = ("coh.ckpt", "pre.ckpt", "policy.ckpt")
    assert t.counts["numeric.checkpoint_bytes"] == sum((tmp_path / f).stat().st_size
                                                       for f in files)
