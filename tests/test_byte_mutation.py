"""Corrupted files fail with a documented exit code, never an exception.

A derandomized property mutates the bytes of a checkpoint, a cleaned CSV,
a ground-truth CSV, a DART file, a clean config or a train config (one
byte replaced, inserted or deleted, the file truncated, or one line
duplicated, dropped or swapped with the next) and runs the command that
reads it, in process: `dartclean clean` for the checkpoint, the clean
config and the DART file, `dartclean train` for the DART file too and for
the train config, and `dartclean eval` for the two CSVs.  Whatever the
bytes, the command exits 0 (the file still reads as valid data), 3 (data
error) or 4 (numeric error), or 2 (config error) for a config, and no
exception escapes ``cli.main``.  A dropped DART line exits 0: the cadence
is not checked yet.

The checkpoint is a format-3 file, whose arrays are base64 strings, and a
second property replaces one byte inside those strings: the clean reads
valid data (0) or rejects the file (3), and a weight whose exponent the
new byte raised may overflow the forward (4).
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartclean.cli import main

DETECT = {"w_s": 24, "w_l": 96}


def _config(directory, name, **data):
    path = directory / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 600-sample spiky series, a 16/8 model trained on it for one epoch,
    the series cleaned with it and the command configs that read each file
    from a mutated copy."""
    d = tmp_path_factory.mktemp("mutation")
    dart, truth, ck, cleaned = d / "s.dart", d / "truth.csv", d / "model.ckpt", d / "cleaned.csv"
    assert main(["synth", "--config", _config(
        d, "synth.json", output=str(dart), ground_truth=str(truth),
        synth={"n": 600, "seed": 3, "spike_count": 6})]) == 0

    def train(name, source, checkpoint, **extra):
        return ["train", "--config", _config(
            d, name, input=str(source), checkpoint=str(checkpoint),
            train_log=f"{checkpoint}.csv", verbosity=0,
            model={"window": 24, "hidden": [16, 8], "latent": 4},
            train={"epochs": 1, "batch_size": 64, **extra})]

    def clean(name, checkpoint, output, source=dart):
        return ["clean", "--config", _config(
            d, name, input=str(source), checkpoint=str(checkpoint), output=str(output),
            detect=DETECT, refine={"iterations": 3})]

    def evaluate(name, cleaned_path, truth_path):
        return ["eval", "--config", _config(
            d, name, input=str(cleaned_path), ground_truth=str(truth_path),
            output=str(d / "report.json"), detect=DETECT)]

    assert main(train("train.json", dart, ck)) == 0
    assert json.loads(ck.read_text())["format_version"] == 3
    assert main(clean("clean.json", ck, cleaned)) == 0
    mutant = d / "mutant"
    # the config names its files relative to the directory it runs in, so
    # a mutated name points into that directory or nowhere
    _config(d, "clean_relative.json", input=dart.name, checkpoint=ck.name,
                     output="config_cleaned.csv", detect=DETECT, refine={"iterations": 3})
    # one edit takes each of these keys to 0 or -1
    train("train_relative.json", dart.name, "config_model.ckpt", patience=1, decay_steps=1,
          seed=1)
    return {
        "checkpoint": (ck, clean("clean_mutant.json", mutant, d / "mutant_cleaned.csv")),
        "cleaned": (cleaned, evaluate("eval_cleaned.json", mutant, truth)),
        "truth": (truth, evaluate("eval_truth.json", cleaned, mutant)),
        "dart_clean": (dart, clean("clean_dart.json", ck, d / "dart_cleaned.csv", mutant)),
        "dart_train": (dart, train("train_dart.json", mutant, d / "mutant_model.ckpt")),
        "config": (d / "clean_relative.json", ["clean", "--config", str(mutant)]),
        "train_config": (d / "train_relative.json", ["train", "--config", str(mutant)]),
        "mutant": mutant,
        "dir": d,
    }


def mutate(data: bytes, kind: str, where: float, byte: int) -> bytes:
    """``data`` with one mutation of ``kind`` at the fraction ``where`` of
    its bytes (of its lines, for a line kind)."""
    i = min(int(where * len(data)), len(data) - 1)
    if kind == "replace":
        return data[:i] + bytes([byte]) + data[i + 1:]
    if kind == "insert":
        return data[:i] + bytes([byte]) + data[i:]
    if kind == "delete":
        return data[:i] + data[i + 1:]
    if kind == "truncate":
        return data[:i]
    lines = data.splitlines(keepends=True)
    k = min(int(where * len(lines)), len(lines) - 1)
    if kind == "duplicate":
        return b"".join(lines[:k + 1] + lines[k:])
    if kind == "drop":
        return b"".join(lines[:k] + lines[k + 1:])
    return b"".join(lines[:k] + lines[k + 1:k + 2] + lines[k:k + 1] + lines[k + 2:])  # swap


@settings(derandomize=True, max_examples=150, deadline=None)
@given(target=st.sampled_from(["checkpoint", "cleaned", "truth", "dart_clean", "dart_train",
                               "config", "train_config"]),
       kind=st.sampled_from(["replace", "insert", "delete", "truncate", "duplicate", "drop",
                             "swap"]),
       where=st.floats(0.0, 1.0), byte=st.integers(0, 255))
def test_mutated_input_exits_with_a_documented_code(files, target, kind, where, byte):
    source, argv = files[target]
    files["mutant"].write_bytes(mutate(source.read_bytes(), kind, where, byte))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(files["dir"])
        code = main(argv)
    assert code in ((0, 2, 3, 4) if target.endswith("config") else (0, 3, 4))


def test_train_config_digit_edits_exit_with_a_documented_code(files):
    """Each digit of the train config replaced by 0, or negated by a minus
    sign inserted before it: every setting it holds, at 0 and below."""
    source, argv = files["train_config"]
    data = source.read_bytes()
    for i in (i for i, byte in enumerate(data) if chr(byte).isdigit()):
        for mutant in (data[:i] + b"0" + data[i + 1:], data[:i] + b"-" + data[i:]):
            files["mutant"].write_bytes(mutant)
            with pytest.MonkeyPatch.context() as patch:
                patch.chdir(files["dir"])
                assert main(argv) in (0, 2, 3, 4), mutant


@settings(derandomize=True, max_examples=60, deadline=None)
@given(array=st.integers(0, 63), where=st.floats(0.0, 1.0), byte=st.integers(0, 255))
def test_flipped_checkpoint_payload_byte_exits_with_a_documented_code(files, array, where,
                                                                      byte):
    source, argv = files["checkpoint"]
    data = source.read_bytes()
    payloads = [m.span(1) for m in re.finditer(rb'"data": "([^"]*)"', data)]
    start, end = payloads[array % len(payloads)]
    i = min(start + int(where * (end - start)), end - 1)
    files["mutant"].write_bytes(data[:i] + bytes([byte]) + data[i + 1:])
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(files["dir"])
        assert main(argv) in (0, 3, 4)
