from __future__ import annotations

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe.channels import Channel
from qpe.exceptions import InputFormatError
from qpe.serialization import (
    channel_json,
    decode_channel,
    decode_effect,
    decode_matrix,
    decode_probvec,
    decode_state,
    effect_json,
    encode_matrix,
    load_distribution,
    probvec_json,
    read_json,
    state_json,
)
from qpe.states import DensityMatrix, Effect, random_state


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestMatrixCells:
    def test_real_matrix_encodes_to_bare_numbers(self):
        entries = encode_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert entries == [[0.5, 0.0], [0.0, 0.5]]

    def test_complex_matrix_uses_pairs(self):
        M = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        entries = encode_matrix(M)
        assert entries[0][1] == [0.0, 0.25]
        assert_allclose(decode_matrix(entries), M, atol=1e-15)

    def test_mixed_cells_decode(self):
        M = decode_matrix([[1, [0.0, 0.5]], [[0.0, -0.5], 1.0]])
        assert M[0, 1] == 0.5j

    def test_bad_cell_rejected(self):
        with pytest.raises(InputFormatError):
            decode_matrix([["one", 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("entries", [
        [[True, False], [False, False]],
        [[1.0, 0.0], [0.0, False]],
        [[[1.0, True], 0.0], [0.0, 0.0]],
    ])
    def test_boolean_cell_rejected(self, entries):
        with pytest.raises(InputFormatError):
            decode_matrix(entries)

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputFormatError):
            decode_matrix([[1.0, 0.0], [0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputFormatError):
            decode_matrix([[1.0]], shape=(2, 2))

    @pytest.mark.parametrize("entries, message", [
        ([], "non-empty list of rows"),
        ([[]], "rows must be non-empty lists"),
    ])
    def test_empty_entries_rejected(self, entries, message):
        with pytest.raises(InputFormatError, match=message):
            decode_state({"kind": "state", "dims": [1], "entries": entries})


class TestStateAndEffectDocuments:
    def test_state_round_trip_with_complex_entries(self, rng):
        rho = random_state(3, rng=rng)
        back = decode_state(json.loads(json.dumps(state_json(rho))))
        assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_effect_round_trip(self):
        e = Effect(np.array([[0.9, 0.1], [0.1, 0.2]]))
        back = decode_effect(effect_json(e))
        assert_allclose(back.matrix, e.matrix, atol=1e-15)

    def test_missing_kind_accepted(self):
        obj = state_json(DensityMatrix.maximally_mixed(2))
        del obj["kind"]
        back = decode_state(obj)
        assert_allclose(back.matrix, np.eye(2) / 2, atol=1e-15)

    def test_wrong_kind_rejected(self):
        obj = state_json(DensityMatrix.maximally_mixed(2))
        obj["kind"] = "effect"
        with pytest.raises(InputFormatError):
            decode_state(obj)

    def test_square_dims_pair_accepted(self):
        obj = state_json(DensityMatrix.maximally_mixed(2))
        obj["dims"] = [2, 2]
        assert_allclose(decode_state(obj).matrix, np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("doc", [[], [[0.5, 0.0], [0.0, 0.5]], "state", 1.0, None])
    def test_document_that_is_not_an_object_rejected(self, doc):
        with pytest.raises(InputFormatError, match="expected a JSON object"):
            decode_state(doc)

    def test_bad_dims_rejected(self):
        obj = state_json(DensityMatrix.maximally_mixed(2))
        obj["dims"] = [2, 3]
        with pytest.raises(InputFormatError):
            decode_state(obj)

    def test_boolean_dims_rejected(self):
        obj = state_json(DensityMatrix.maximally_mixed(1))
        obj["dims"] = [True]
        with pytest.raises(InputFormatError):
            decode_state(obj)


class TestProbvecDocuments:
    def test_round_trip(self):
        p = decode_probvec(probvec_json([0.5, 0.3, 0.2]))
        assert_allclose(p, [0.5, 0.3, 0.2], atol=1e-15)

    def test_probs_length_must_match_dims(self):
        with pytest.raises(InputFormatError):
            decode_probvec({"kind": "probvec", "dims": [3], "probs": [1.0]})

    def test_boolean_probability_rejected(self):
        doc = json.loads('{"kind": "probvec", "dims": [2], "probs": [true, false]}')
        with pytest.raises(InputFormatError):
            decode_probvec(doc)


class TestChannelDocuments:
    def test_choi_round_trip(self, rng):
        phi = Channel.random(2, 2, 2, rng)
        back = decode_channel(json.loads(json.dumps(channel_json(phi))))
        assert_allclose(back.choi.matrix, phi.choi.matrix, atol=1e-10)

    def test_kraus_round_trip(self, rng):
        phi = Channel.random(2, 3, 2, rng)
        doc = channel_json(phi, rep="kraus")
        back = decode_channel(json.loads(json.dumps(doc)))
        assert back.in_dim == 2 and back.out_dim == 3
        assert_allclose(back.choi.matrix, phi.choi.matrix, atol=1e-10)

    def test_unknown_repr_rejected(self, rng):
        phi = Channel.random(2, 2, 2, rng)
        with pytest.raises(InputFormatError):
            channel_json(phi, rep="stinespring")
        doc = channel_json(phi)
        doc["repr"] = "stinespring"
        with pytest.raises(InputFormatError):
            decode_channel(doc)

    def test_missing_dims_rejected(self):
        with pytest.raises(InputFormatError):
            decode_channel({"kind": "channel", "repr": "choi", "data": [[1.0]]})

    def test_empty_kraus_family_rejected(self):
        doc = {"kind": "channel", "in_dim": 2, "out_dim": 2, "repr": "kraus", "data": []}
        with pytest.raises(InputFormatError, match="kraus data must be a non-empty list"):
            decode_channel(doc)

    def test_boolean_dims_rejected(self):
        doc = {"kind": "channel", "in_dim": True, "out_dim": 1, "repr": "choi", "data": [[1.0]]}
        with pytest.raises(InputFormatError):
            decode_channel(doc)


class TestFileLoading:
    def test_read_json_reports_path_on_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError, match="broken.json"):
            read_json(str(path))

    def test_read_json_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            read_json(str(tmp_path / "absent.json"))

    def test_load_distribution_from_probvec(self, tmp_path):
        path = write_json(tmp_path, "p.json", probvec_json([0.7, 0.3]))
        assert_allclose(load_distribution(path), [0.7, 0.3], atol=1e-15)

    def test_load_distribution_from_diagonal_state(self, tmp_path):
        doc = state_json(DensityMatrix.from_diag([0.6, 0.4]))
        path = write_json(tmp_path, "s.json", doc)
        assert_allclose(load_distribution(path), [0.6, 0.4], atol=1e-15)

    def test_load_distribution_rejects_coherences(self, tmp_path):
        rho = DensityMatrix(np.array([[0.5, 0.2], [0.2, 0.5]]))
        path = write_json(tmp_path, "c.json", state_json(rho))
        with pytest.raises(InputFormatError):
            load_distribution(path)
