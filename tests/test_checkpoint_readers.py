"""The checkpoint readers on incomplete, inconsistent and corrupted files:
each returns or raises FormatError, never another exception."""
import json
import math
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptcl import gmm
from promptcl import losses as ls
from promptcl import prompts as pr
from promptcl import trainer as tr
from promptcl.encoders import EncoderConfig
from promptcl.featureio import (FEATURE_MAGIC, FormatError, load_feature_file,
                                read_archive, write_archive, write_feature_file)
from promptcl.rng import Rng


def _heads():
    heads = ls.ClassifierHeads(d_prime=3)
    heads.add_task(0, [4, 7])
    heads.add_task(1, [2])
    return heads


def _books(prefix_tokens):
    books = pr.Codebooks(d=4, L=2, d_prime=3, prefix_tokens=prefix_tokens)
    pr.extend_codebooks(books, [4, 7], Rng(0), 0)
    pr.extend_codebooks(books, [2], Rng(1), 1)
    books.keys = {c: np.full(4, 0.5, np.float32) for c in (2, 4, 7)}
    return books


def _bank():
    return {c: gmm.MoG(weights=np.array([0.25, 0.75]), means=np.zeros((2, 3)),
                       covs=np.ones((2, 3))) for c in (2, 4)}


# name -> (magic, writer of a valid file, reader given the writer's geometry and
# the classes of its codebook)
ARCHIVES = {
    "heads": (ls.HEADS_MAGIC, lambda p: ls.save_heads(p, _heads()),
              lambda p: ls.load_heads(p, ls.ClassifierHeads(d_prime=3), [[4, 7], [2]])),
    "codebooks": (pr.CODEBOOK_MAGIC, lambda p: pr.save_codebooks(p, _books(0)),
                  lambda p: pr.load_codebooks(p, pr.Codebooks(d=4, L=2, d_prime=3))),
    "prefix_codebooks": (pr.CODEBOOK_MAGIC, lambda p: pr.save_codebooks(p, _books(2)),
                         lambda p: pr.load_codebooks(
                             p, pr.Codebooks(d=4, L=2, d_prime=3, prefix_tokens=2))),
    "bank": (gmm.MOG_MAGIC, lambda p: gmm.save_bank(p, _bank()),
             lambda p: gmm.load_bank(p, dim=3, class_ids=[2, 4])),
    "features": (FEATURE_MAGIC,
                 lambda p: write_feature_file(p, np.arange(12, dtype=np.float32).reshape(4, 3),
                                              [0, 1, 0, 1]),
                 load_feature_file),
}


def _load_or_format_error(read, path):
    try:
        read(path)
    except FormatError:
        pass


INCOMPLETE = [  # (reader, edit of a valid archive, entry the error names)
    ("heads", lambda a: a.update(w0=a["w0"][1:]), "w0"),
    ("heads", lambda a: a.pop("w1"), "w1"),
    ("heads", lambda a: a.update(b0=a["b0"][:1]), "b0"),
    ("heads", lambda a: a.update(classes0=np.array([4, 4])), "classes0"),
    ("heads", lambda a: a.update(classes1=np.array([3])), "classes1"),
    ("codebooks", lambda a: a.pop("p7"), "p7"),
    ("codebooks", lambda a: a.pop("w7"), "w7"),
    ("codebooks", lambda a: a.update(task_of=a["task_of"][:2]), "task_of"),
    ("codebooks", lambda a: a.update(A4=a["A4"][:3]), "A4"),
    ("codebooks", lambda a: a.update(class_ids=a["class_ids"].astype(np.float64)),
     "class_ids"),
    ("prefix_codebooks", lambda a: a.update(Q2=a["Q2"][:, :2]), "Q2"),
    ("prefix_codebooks", lambda a: a.update(class_ids=np.append(a["class_ids"], 4),
                                            task_of=np.append(a["task_of"], 0)),
     "class_ids"),  # a second class 4
    ("bank", lambda a: a.pop("mu4"), "mu4"),
    ("bank", lambda a: [a.pop(f"{part}4") for part in ("w", "mu", "cov")], "w4"),
    ("features", lambda a: a.update(labels=a["labels"][:3]), "labels"),
]


@pytest.mark.parametrize("kind, edit, entry", INCOMPLETE,
                         ids=[f"{kind}-{entry}" for kind, _, entry in INCOMPLETE])
def test_incomplete_archive_names_file_and_entry(tmp_path, kind, edit, entry):
    magic, write, read = ARCHIVES[kind]
    path = tmp_path / f"{kind}.bin"
    write(path)
    read(path)
    arrays = read_archive(path, magic)
    edit(arrays)
    write_archive(path, magic, arrays)
    with pytest.raises(FormatError, match=rf"{kind}\.bin: .*'{entry}'"):
        read(path)


BEYOND_FLOAT32 = [  # (reader, float entry it reads as float32)
    ("heads", "w0"), ("heads", "b1"), ("codebooks", "w7"), ("prefix_codebooks", "Q2"),
    ("features", "features"),
]


@pytest.mark.parametrize("kind, entry", BEYOND_FLOAT32,
                         ids=[f"{kind}-{entry}" for kind, entry in BEYOND_FLOAT32])
def test_float64_entry_beyond_float32_range_is_named(tmp_path, kind, entry):
    # stored as f8: 1e300 is finite there but has no float32 value; values
    # in range still read, as float32
    magic, write, read = ARCHIVES[kind]
    path = tmp_path / f"{kind}.bin"
    write(path)
    arrays = read_archive(path, magic)
    arrays[entry] = arrays[entry].astype(np.float64)
    write_archive(path, magic, arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read(path)
        arrays[entry].flat[0] = 1e300
        write_archive(path, magic, arrays)
        with pytest.raises(FormatError, match=rf"{kind}\.bin: entry '{entry}' holds values "
                                              r"beyond float32 range"):
            read(path)


@pytest.mark.parametrize("tasks", [[0, 0, 2], [1, 1, 2], [-1, 0, 0]])
def test_codebook_tasks_must_number_from_zero(tmp_path, tasks):
    # classes 2, 4 and 7 owned by tasks that leave a gap or start elsewhere
    magic, write, read = ARCHIVES["codebooks"]
    path = tmp_path / "codebooks.bin"
    write(path)
    arrays = read_archive(path, magic)
    arrays["task_of"] = np.array(tasks, np.int64)
    write_archive(path, magic, arrays)
    with pytest.raises(FormatError, match=r"codebooks\.bin: entry 'task_of'"):
        read(path)


# one edit: (op, entry index, new name (an int picks an existing one), new
# shape, new dtype, value offset)
_EDITS = st.lists(st.tuples(
    st.sampled_from(("drop", "rename", "reshape")),
    st.integers(min_value=0),
    st.one_of(st.integers(min_value=0), st.text("pQAwbmucovlasdtk_0123", max_size=6)),
    st.lists(st.integers(0, 4), max_size=3),
    st.sampled_from((np.float32, np.float64, np.int64)),
    st.integers(-2, 8),
), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(ARCHIVES)), edits=_EDITS)
def test_edited_archives_load_or_raise_format_error(tmp_path_factory, kind, edits):
    magic, write, read = ARCHIVES[kind]
    path = tmp_path_factory.getbasetemp() / f"edited_{kind}.bin"
    write(path)
    arrays = read_archive(path, magic)
    for op, i, name, shape, dtype, offset in edits:
        if not arrays:
            break
        key = sorted(arrays)[i % len(arrays)]
        if op == "drop":
            del arrays[key]
        elif op == "rename":
            new = sorted(arrays)[name % len(arrays)] if isinstance(name, int) else name
            arrays[new] = arrays.pop(key)
        else:
            arrays[key] = (np.arange(math.prod(shape)).reshape(shape) + offset).astype(dtype)
    write_archive(path, magic, arrays)
    _load_or_format_error(read, path)


# one mutation: (op, position, byte)
_MUTATIONS = st.lists(st.tuples(st.sampled_from(("set", "insert", "delete")),
                                st.integers(min_value=0), st.integers(0, 255)),
                      min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(ARCHIVES)), mutations=_MUTATIONS)
def test_mutated_bytes_load_or_raise_format_error(tmp_path_factory, kind, mutations):
    _, write, read = ARCHIVES[kind]
    path = tmp_path_factory.getbasetemp() / f"mutated_{kind}.bin"
    write(path)
    raw = bytearray(path.read_bytes())
    for op, pos, byte in mutations:
        pos %= len(raw) + 1
        if op == "insert":
            raw.insert(pos, byte)
        elif pos < len(raw):
            if op == "set":
                raw[pos] = byte
            else:
                del raw[pos]
    path.write_bytes(bytes(raw))
    _load_or_format_error(read, path)


def _trainer_checkpoint(path, variant=None):
    """Save a checkpoint of one hand-built task on a tiny stack."""
    state = tr.new_state(EncoderConfig(d=4, d_prime=4, L=1, heads=2, seq_len=3,
                                       patch_dim=2), seed=0, variant=variant)
    pr.extend_codebooks(state.books, [4, 7], Rng(0), 0)
    state.books.keys = {4: np.eye(4, dtype=np.float32)[0], 7: np.eye(4, dtype=np.float32)[1]}
    state.heads.add_task(0, [4, 7])
    state.class_names = {4: "cat", 7: "dog"}
    state.current_task = 0
    tr.save_checkpoint(state, path)


TRAINER_JSON = [  # (edit of trainer.json's object, key the error names)
    *[(lambda m, k=k: m.pop(k), k) for k in ("seed", "variant")],
    (lambda m: m["class_names"].pop("7"), "class_names"),  # a codebook class unnamed
    (lambda m: m.update(feature_space=True), "feature_space"),  # an older feature-file run
    *[(lambda m, k=k: m.pop(k), k) for k in ("class_names", "encoder")],
    (lambda m: m.update(seed="0"), "seed"),
    (lambda m: m.update(variant=3), "variant"),
    (lambda m: m.update(variant="turbo"), "variant"),
    (lambda m: m.update(seed=-5), "seed"),
    (lambda m: m.update(feature_space=0), "feature_space"),
    (lambda m: m.update(class_names=["cat"]), "class_names"),
    (lambda m: m.update(class_names={"four": "cat"}), "class_names"),
    (lambda m: m.update(class_names={"4": ""}), "class_names"),
    (lambda m: m.update(encoder=[4]), "encoder"),
    (lambda m: m["encoder"].update(width=8), "encoder"),
    (lambda m: m["encoder"].pop("d"), "encoder"),
    (lambda m: m["encoder"].update(d="4"), "encoder"),
    (lambda m: m["encoder"].update(heads=3), "encoder"),
    (lambda m: m["encoder"].update(tau=math.inf), "tau"),
    (lambda m: m["class_names"].update({"9": "eel"}), "class_names"),  # no such class
    # int() accepts each of these, but save_checkpoint writes str(int(id))
    *[(lambda m, k=k: m["class_names"].update({k: "eel"}), k)
      for k in ("04", "+4", " 4", "4_0", "-0")],
]


@pytest.mark.parametrize("edit, key", TRAINER_JSON,
                         ids=[f"{i}-{key}" for i, (_, key) in enumerate(TRAINER_JSON)])
def test_trainer_json_names_file_and_key(tmp_path, edit, key):
    _trainer_checkpoint(tmp_path)
    tr.load_checkpoint(tmp_path)
    meta_path = tmp_path / "trainer.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=rf"trainer\.json: .*'{re.escape(key)}'"):
        tr.load_checkpoint(tmp_path)


REPEATED = [  # (text in trainer.json, the text that repeats a key there, that key)
    ('"seed": 0', '"seed": 3,\n  "seed": 4', "seed"),
    ('"4": "cat"', '"4": "cat",\n    "4": "eel"', "4"),
    ('"d": 4,', '"d": 4,\n    "d": 8,', "d"),
]


@pytest.mark.parametrize("old, new, key", REPEATED, ids=[k for *_, k in REPEATED])
def test_trainer_json_key_given_twice_is_named(tmp_path, old, new, key):
    _trainer_checkpoint(tmp_path)
    meta_path = tmp_path / "trainer.json"
    text = meta_path.read_text()
    assert old in text
    meta_path.write_text(text.replace(old, new))
    with pytest.raises(FormatError, match=rf"trainer\.json: key '{key}' is given twice"):
        tr.load_checkpoint(tmp_path)


def test_archive_entry_given_twice_is_named(tmp_path):
    path = tmp_path / "twice.bin"
    write_archive(path, b"STARTEST", {"a": np.zeros(2), "b": np.ones(2)})
    raw = path.read_bytes()
    name_b = raw.index(b"b" + b"f8")  # the second entry's name, just before its dtype
    path.write_bytes(raw[:name_b] + b"a" + raw[name_b + 1:])
    with pytest.raises(FormatError, match=r"twice\.bin: entry 'a' is given twice"):
        read_archive(path, b"STARTEST")


@pytest.mark.parametrize("text", [b'{"seed": 0,', b"\xff\xfe{}", b"", b"[1, 2]"])
def test_corrupt_trainer_json_raises_format_error(tmp_path, text):
    _trainer_checkpoint(tmp_path)
    (tmp_path / "trainer.json").write_bytes(text)
    with pytest.raises(FormatError, match=r"trainer\.json: "):
        tr.load_checkpoint(tmp_path)


GEOMETRY = [  # (variant saved, edit of trainer.json's object, entry the error names)
    (None, lambda m: m["encoder"].update(L=2), "Q4"),
    (None, lambda m: m["encoder"].update(d=8), "p4"),
    (None, lambda m: m["encoder"].update(d_prime=8), "Q4"),
    (None, lambda m: m.update(variant="prefix_tuning"), "Q4"),
    ("prefix_tuning", lambda m: m.update(variant=None), "Q4"),
]


@pytest.mark.parametrize("variant, edit, entry", GEOMETRY,
                         ids=["None-L", "None-d", "None-d_prime", "None-variant",
                              "prefix_tuning-variant"])
def test_trainer_json_geometry_checked_before_the_stack(tmp_path, monkeypatch, variant,
                                                        edit, entry):
    _trainer_checkpoint(tmp_path, variant)
    meta_path = tmp_path / "trainer.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))

    def no_stack(*_):
        raise AssertionError("build_stack ran before the archives were checked")

    monkeypatch.setattr(tr, "build_stack", no_stack)
    with pytest.raises(FormatError, match=rf"codebooks\.bin: entry '{entry}'"):
        tr.load_checkpoint(tmp_path)


def _membership_checkpoint(path):
    """Save a 2-task checkpoint with heads, keys and both banks on a tiny
    stack; head 0's columns are not in ascending class order."""
    state = tr.new_state(EncoderConfig(d=4, d_prime=4, L=1, heads=2, seq_len=3,
                                       patch_dim=2), seed=0)
    pr.extend_codebooks(state.books, [4, 7], Rng(0), 0)
    pr.extend_codebooks(state.books, [2], Rng(1), 1)
    state.books.keys = {c: np.eye(4, dtype=np.float32)[i] for i, c in enumerate((2, 4, 7))}
    state.heads.add_task(0, [7, 4])
    state.heads.add_task(1, [2])
    for bank in (state.bank1, state.bank2):
        bank.update((c, gmm.MoG(weights=np.ones(1), means=np.zeros((1, 4)),
                                covs=np.ones((1, 4)))) for c in (2, 4, 7))
    state.class_names = {2: "ant", 4: "cat", 7: "dog"}
    state.current_task = 1
    tr.save_checkpoint(state, path)


_MEMBERSHIP_FILES = {"codebooks": ("codebooks.bin", pr.CODEBOOK_MAGIC),
                     "heads": ("heads.bin", ls.HEADS_MAGIC),
                     "bank1": ("bank1.bin", gmm.MOG_MAGIC),
                     "bank2": ("bank2.bin", gmm.MOG_MAGIC)}


def _edited(ids, op, i, new):
    """``ids`` with entry ``i`` dropped or renamed to ``new``, or with ``new``
    added."""
    ids = list(ids)
    if op == "drop":
        del ids[i]
    elif op == "add":
        ids.append(new)
    else:
        ids[i] = new
    return ids


def _edit_membership(ckpt, place, op, pick, new, task):
    """Drop, add or rename one class in one place of the checkpoint ``ckpt``:
    the class at position ``pick`` of that place's list, new id ``new``; an
    added codebook class is owned by ``task``, a head edit hits head
    ``task % 2``."""
    if place == "class_names":
        meta = json.loads((ckpt / "trainer.json").read_text())
        names = meta["class_names"]
        keys = sorted(names)
        i = pick % len(keys)
        meta["class_names"] = {k: names.get(k, names[keys[i]])
                               for k in _edited(keys, op, i, str(new))}
        (ckpt / "trainer.json").write_text(json.dumps(meta))
        return
    file, magic = _MEMBERSHIP_FILES[place]
    arrays = read_archive(ckpt / file, magic)
    if place == "heads":
        key = f"classes{task % 2}"
        classes = arrays[key].tolist()
        arrays[key] = np.array(_edited(classes, op, pick % len(classes), new), np.int64)
    else:
        books = place == "codebooks"
        cids = (arrays["class_ids"].tolist() if books
                else sorted(int(k[2:]) for k in arrays if k.startswith("mu")))
        i = pick % len(cids)
        parts = ("p", "Q", "A", "w") if books else ("w", "mu", "cov")
        take = arrays.get if op == "add" else arrays.pop
        entries = {part: take(f"{part}{cids[i]}") for part in parts}
        if op != "drop":
            arrays.update((f"{part}{new}", v) for part, v in entries.items())
        if books:
            tasks = arrays["task_of"].tolist()
            arrays["task_of"] = np.array(
                _edited(tasks, op, i, tasks[i] if op == "rename" else task), np.int64)
            arrays["class_ids"] = np.array(_edited(cids, op, i, new), np.int64)
    write_archive(ckpt / file, magic, arrays)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(place=st.sampled_from(("codebooks", "heads", "bank1", "bank2", "class_names")),
       op=st.sampled_from(("drop", "add", "rename")), pick=st.integers(min_value=0),
       new=st.integers(-1, 9), task=st.integers(-1, 2))
def test_edited_membership_loads_consistent_or_raises_format_error(
        tmp_path_factory, place, op, pick, new, task):
    # codebooks.bin owns which classes exist and which task owns each; a
    # checkpoint that loads has heads, banks and names of exactly those classes
    base = tmp_path_factory.getbasetemp() / "membership"
    if not base.exists():
        _membership_checkpoint(base)
    ckpt = tmp_path_factory.getbasetemp() / "membership_edited"
    shutil.rmtree(ckpt, ignore_errors=True)
    shutil.copytree(base, ckpt)
    _edit_membership(ckpt, place, op, pick, new, task)
    try:
        state = tr.load_checkpoint(ckpt)
    except FormatError:
        return
    cids, task_of = state.books.class_ids, state.books.task_of
    tasks = sorted(set(task_of.values()))
    assert tasks == list(range(len(tasks))) and state.current_task == len(tasks) - 1
    assert list(state.heads.heads) == tasks
    for t in tasks:
        assert sorted(state.heads.classes[state.heads.spans[t]]) == [
            c for c in cids if task_of[c] == t]
    assert sorted(state.class_names) == sorted(state.class_embeds) == cids
    assert sorted(state.books.keys) == cids
    assert sorted(state.bank1) == sorted(state.bank2) == cids
