"""Parameter tree, encoder init/forward, scoping, and checkpoint format tests."""

import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fassl.autodiff import Tensor
from fassl.checkpoint import load_params, save_params
from fassl.errors import ContractError
from fassl.model import (
    ParamTree,
    encode,
    init_encoder,
    merge,
    split,
)

from conftest import flatten_layer, map_values, params_bytes

SIZES = (64, 32, 16, 8)  # input_dim, hidden_dim, embed_dim, projection_dim


class TestParamTree:
    def test_canonical_order_is_lexicographic(self):
        tree = ParamTree([("b.w", Tensor([1.0])), ("a.w", Tensor([2.0]))])
        assert tree.names() == ["a.w", "b.w"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContractError):
            ParamTree([("x", Tensor([1.0])), ("x", Tensor([2.0]))])

    @pytest.mark.parametrize("value", [np.array([1.0]), [1.0], 1.0], ids=["ndarray", "list", "float"])
    def test_non_tensor_entry_rejected_naming_its_type(self, value):
        with pytest.raises(ContractError, match=rf"'b\.w' must be a Tensor, got {type(value).__name__}"):
            ParamTree([("a.w", Tensor([2.0])), ("b.w", value)])

    @pytest.mark.parametrize("name", [3, b"b.w", None], ids=["int", "bytes", "None"])
    def test_non_str_name_rejected_naming_its_type(self, name):
        with pytest.raises(ContractError, match=rf"name {re.escape(repr(name))} must be a str, got {type(name).__name__}"):
            ParamTree([("a.w", Tensor([2.0])), (name, Tensor([1.0]))])

    def test_congruence(self):
        a = ParamTree([("x", Tensor([1.0, 2.0]))])
        b = ParamTree([("x", Tensor([3.0, 4.0]))])
        c = ParamTree([("x", Tensor([[3.0, 4.0]]))])
        assert a.congruent_with(b)
        assert not a.congruent_with(c)


class TestClone:
    def test_new_tensors_share_the_arrays(self):
        src = ParamTree([("a", Tensor([1.0, 2.0])), ("b", Tensor([[3.0], [4.0]]))])
        out = src.clone()
        assert out.names() == src.names()
        for (_, new), (_, old) in zip(out.items(), src.items()):
            assert new is not old
            assert np.shares_memory(new.data, old.data)

    def test_clone_is_a_full_tree(self):
        out = init_encoder(*SIZES, seed=3).clone()
        assert out.get("backbone.fc1.weight") is out.as_dict()["backbone.fc1.weight"]
        assert "head.acop.fc.bias" in out and len(out) == 10
        assert params_bytes(out) == params_bytes(init_encoder(*SIZES, seed=3))


class TestInitEncoder:
    def test_same_seed_byte_identical(self):
        a, b = init_encoder(*SIZES, seed=9), init_encoder(*SIZES, seed=9)
        assert params_bytes(a) == params_bytes(b)

    def test_different_seeds_differ(self):
        a, b = init_encoder(*SIZES, seed=9), init_encoder(*SIZES, seed=10)
        assert params_bytes(a) != params_bytes(b)

    def test_backbone_parameter_count_formula(self):
        # in*hidden + hidden + hidden*embed + embed
        tree = init_encoder(*SIZES, seed=0)
        backbone, _ = split(tree, "backbone")
        assert sum(t.data.size for _, t in backbone.items()) == 64 * 32 + 32 + 32 * 16 + 16 == 2608

    def test_biases_zero_weights_bounded(self):
        tree = init_encoder(*SIZES, seed=3)
        for name, t in tree.items():
            if name.endswith(".bias"):
                assert np.all(t.data == 0.0)
            else:
                fan_in = t.shape[0]
                assert np.all(np.abs(t.data) <= 1.0 / np.sqrt(fan_in))


class TestEncode:
    def test_zero_weights_give_zero_embedding(self):
        tree = map_values(
            init_encoder(*SIZES, seed=0),
            lambda _, t: Tensor(np.zeros_like(t.data))
        )
        out = encode(tree, Tensor(np.ones((3, 64))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 16)))

    def test_batch_independence(self, rng):
        tree = init_encoder(*SIZES, seed=1)
        x = rng.normal(size=(2, 64))
        single = encode(tree, Tensor(x[:1]))
        double = encode(tree, Tensor(x))
        # BLAS may pick different kernels per batch size; agreement is to rounding
        np.testing.assert_allclose(single.data[0], double.data[0], rtol=1e-12, atol=1e-15)

    def test_output_shape(self, rng):
        tree = init_encoder(*SIZES, seed=1)
        assert encode(tree, Tensor(rng.normal(size=(5, 64)))).shape == (5, 16)

    def test_width_mismatch_rejected(self, rng):
        tree = init_encoder(*SIZES, seed=1)
        with pytest.raises(ContractError):
            encode(tree, Tensor(rng.normal(size=(5, 63))))

    def test_batch_order_equivariant(self, rng):
        tree = init_encoder(*SIZES, seed=2)
        x = rng.normal(size=(6, 64))
        perm = rng.permutation(6)
        out = encode(tree, Tensor(x)).data
        out_perm = encode(tree, Tensor(x[perm])).data
        np.testing.assert_array_equal(out[perm], out_perm)


class TestSplitMerge:
    def test_full_scope_retains_nothing(self):
        tree = init_encoder(*SIZES, seed=0)
        trans, kept = split(tree, "full")
        assert len(kept) == 0 and trans.names() == tree.names()

    def test_backbone_scope_prefixes(self):
        tree = init_encoder(*SIZES, seed=0)
        trans, kept = split(tree, "backbone")
        assert all(n.startswith("backbone.") for n in trans.names())
        assert all(not n.startswith("backbone.") for n in kept.names())

    def test_split_then_merge_roundtrip(self):
        tree = init_encoder(*SIZES, seed=0)
        trans, kept = split(tree, "backbone")
        assert params_bytes(merge(trans, kept)) == params_bytes(tree)

    def test_merge_with_empty_is_identity(self):
        tree = init_encoder(*SIZES, seed=0)
        assert params_bytes(merge(tree, ParamTree.empty())) == params_bytes(tree)

    def test_overlapping_merge_rejected(self):
        tree = init_encoder(*SIZES, seed=0)
        with pytest.raises(ContractError):
            merge(tree, tree)

    def test_unknown_scope_rejected(self):
        with pytest.raises(ContractError):
            split(init_encoder(*SIZES, seed=0), "half")


class TestFlattenLayer:
    def test_row_major_order(self):
        tree = ParamTree([("l.weight", Tensor([[1.0, 2.0], [3.0, 4.0]]))])
        assert [part.tolist() for part in flatten_layer(tree, "l")] == [[1.0, 2.0, 3.0, 4.0]]

    def test_layer_concatenation_follows_canonical_name_order(self):
        tree = ParamTree([
            ("l.weight", Tensor([[1.0, 2.0]])),
            ("l.bias", Tensor([9.0])),
        ])
        # canonical order puts .bias before .weight
        assert [part.tolist() for part in flatten_layer(tree, "l")] == [[9.0], [1.0, 2.0]]

    def test_unknown_layer_rejected(self):
        with pytest.raises(ContractError):
            flatten_layer(init_encoder(*SIZES, seed=0), "nope")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_congruence_preserved_by_split_and_merge(seed):
    tree = init_encoder(*SIZES, seed=seed)
    trans, kept = split(tree, "backbone")
    rebuilt = merge(trans, kept)
    assert rebuilt.congruent_with(tree)
    assert rebuilt.names() == tree.names()


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        tree = init_encoder(*SIZES, seed=5)
        path = tmp_path / "model.ckpt"
        save_params(tree, path)
        assert params_bytes(load_params(path)) == params_bytes(tree)

    def test_header_layout(self, tmp_path):
        tree = ParamTree([("a", Tensor([[1.0, 2.0]]))])
        blob = params_bytes(tree)
        assert blob[:4] == b"FSSL"
        assert int.from_bytes(blob[4:6], "little") == 1  # version
        assert int.from_bytes(blob[6:10], "little") == 1  # entry count
        name_len = int.from_bytes(blob[10:12], "little")
        assert blob[12:12 + name_len] == b"a"
        rank_at = 12 + name_len
        assert blob[rank_at] == 2
        dims = np.frombuffer(blob[rank_at + 1:rank_at + 9], dtype="<u4")
        np.testing.assert_array_equal(dims, [1, 2])
        payload = np.frombuffer(blob[rank_at + 9:], dtype="<f8")
        np.testing.assert_array_equal(payload, [1.0, 2.0])

    def test_identical_trees_serialize_identically(self):
        a = init_encoder(*SIZES, seed=6)
        b = init_encoder(*SIZES, seed=6)
        assert params_bytes(a) == params_bytes(b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(ContractError, match="magic"):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        tree = ParamTree([("a", Tensor([1.0]))])
        path = tmp_path / "model.ckpt"
        path.write_bytes(params_bytes(tree) + b"\x00")
        with pytest.raises(ContractError, match="trailing"):
            load_params(path)

    def test_every_truncation_rejected(self, tmp_path):
        tree = ParamTree([("a.bias", Tensor([1.0, 2.0])), ("a.weight", Tensor([[3.0], [4.0]])), ("s", Tensor(5.0))])
        blob = params_bytes(tree)
        path = tmp_path / "cut.ckpt"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ContractError):
                load_params(path)

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_save_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "final.ckpt"
        save_params(init_encoder(*SIZES, seed=1), path)
        old = path.read_bytes()
        if failure == "write":
            real_write_bytes = Path.write_bytes

            def torn_write(self, data):
                real_write_bytes(self, data[: len(data) // 2])
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_bytes", torn_write)
        else:
            def failing_replace(src, dst):
                raise OSError("rename failed")

            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_params(init_encoder(*SIZES, seed=2), path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final.ckpt"]

    def test_save_overwrites_atomically_named_target(self, tmp_path):
        path = tmp_path / "round_0001.ckpt"
        save_params(init_encoder(*SIZES, seed=1), path)
        tree = init_encoder(*SIZES, seed=2)
        save_params(tree, path)
        assert path.read_bytes() == params_bytes(tree)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["round_0001.ckpt"]

    def test_invalid_utf8_name_rejected(self, tmp_path):
        blob = params_bytes(ParamTree([("a", Tensor([1.0]))]))
        assert blob[12:13] == b"a"
        path = tmp_path / "bad_name.ckpt"
        path.write_bytes(blob[:12] + b"\xff" + blob[13:])
        with pytest.raises(ContractError, match="corrupt"):
            load_params(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda blob: blob[:-8] + np.array([np.nan], dtype="<f8").tobytes(), "finite"),
        (lambda blob: blob[:-8] + np.array([-np.inf], dtype="<f8").tobytes(), "finite"),
        (lambda blob: blob[:28] + b"a" + blob[29:], r"duplicate parameter names: \['a'\]"),
        (lambda blob: b"JUNK" + blob[4:], "magic"),
    ], ids=["nan", "inf", "duplicate_name", "magic"])
    def test_decode_error_names_the_file(self, tmp_path, corrupt, message):
        blob = params_bytes(ParamTree([("a", Tensor([1.0])), ("b", Tensor([2.0]))]))
        assert blob[28:29] == b"b"  # header 10 + entry "a" 16 + name length 2
        path = tmp_path / "bad.ckpt"
        path.write_bytes(corrupt(blob))
        with pytest.raises(ContractError, match=message) as info:
            load_params(path)
        assert str(info.value).startswith(f"{path}: ")


FUZZ_TREE = ParamTree([
    ("a.bias", Tensor([1.0, -2.0])),
    ("a.weight", Tensor([[3.0, 0.5], [4.0, -0.25]])),
    ("s", Tensor(5.0)),
])
FUZZ_BLOB = params_bytes(FUZZ_TREE)
# byte offsets of the first entry's rank and dims ("a.bias": 10 + 2 + 6)
FUZZ_RANK_AT = 18


def _with_first_entry_shape(dims: list[int]) -> bytes:
    """FUZZ_BLOB with the first entry's rank and dims replaced (payload left as is)."""
    head = FUZZ_BLOB[:FUZZ_RANK_AT]
    rest = FUZZ_BLOB[FUZZ_RANK_AT + 1 + 4:]
    return head + bytes([len(dims)]) + b"".join(d.to_bytes(4, "little") for d in dims) + rest


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    overwrites=st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(FUZZ_BLOB) - 1), st.integers(min_value=0, max_value=255)),
        max_size=8,
    ),
    cut=st.none() | st.integers(min_value=0, max_value=len(FUZZ_BLOB)),
    tail=st.binary(max_size=24),
)
@example(overwrites=[], cut=None, tail=b"")  # the untouched container loads
@example(overwrites=[(FUZZ_RANK_AT, 65)], cut=None, tail=b"\x01\x00\x00\x00" * 70)  # rank past numpy's limit
def test_corrupt_checkpoint_loads_or_raises_contract_error(tmp_path, overwrites, cut, tail):
    blob = bytearray(FUZZ_BLOB)
    for pos, value in overwrites:
        blob[pos] = value
    if cut is not None:
        del blob[cut:]
    blob += tail
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(bytes(blob))
    try:
        tree = load_params(path)
    except ContractError:
        return
    assert isinstance(tree, ParamTree)
    if bytes(blob) == FUZZ_BLOB:
        assert params_bytes(tree) == FUZZ_BLOB


@pytest.mark.parametrize("dims", [[1] * 65, [0, 2**32 - 1, 2**32 - 1, 2**32 - 1]], ids=["rank65", "zero_size_too_big"])
def test_unrepresentable_entry_shape_rejected(tmp_path, dims):
    path = tmp_path / "shape.ckpt"
    path.write_bytes(_with_first_entry_shape(dims))
    with pytest.raises(ContractError):
        load_params(path)
