import json

import numpy as np
import pytest

from bearingsound import metrics
from bearingsound.common import LABELS
from bearingsound.dataset import Frames
from bearingsound.errors import DataError
from bearingsound.metrics import confusion, round_half_up

# Published reference matrices for the four benchmark evaluations, as
# (counts rows=predicted x cols=true, column percentages, accuracy).
REFERENCE_MATRICES = [
    ([[9987, 135], [56, 9822]], [[99.44, 1.36], [0.56, 98.64]], 99.04),
    ([[15000, 29], [20, 4949]], [[99.87, 0.58], [0.13, 99.42]], 99.75),
    ([[21850, 636], [3150, 24363]], [[87.40, 2.54], [12.60, 97.46]], 92.43),
    ([[24656, 3194], [344, 21805]], [[98.62, 12.78], [1.38, 87.22]], 92.92),
]


H, D = LABELS.index("H"), LABELS.index("D")


class TestConfusion:
    def test_all_correct_is_diagonal(self):
        labels = np.array([H] * 10 + [D] * 10)
        counts = confusion(labels, labels)
        np.testing.assert_array_equal(counts, [[10, 0], [0, 10]])
        assert counts.sum() == 20

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            confusion(np.array([H]), np.array([H, D]))

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError):
            confusion(np.array([H, 2]), np.array([H, D]))
        with pytest.raises(DataError):
            confusion(np.array([H, D]), np.array([-1, D]))

    def test_invariant_under_pair_permutation(self):
        rng = np.random.default_rng(3)
        predicted = np.where(rng.integers(0, 2, size=200), H, D)
        true = np.where(rng.integers(0, 2, size=200), H, D)
        base = confusion(predicted, true)
        order = rng.permutation(200)
        shuffled = confusion(predicted[order], true[order])
        np.testing.assert_array_equal(base, shuffled)


class TestMetrics:
    @pytest.mark.parametrize("counts,percentages,accuracy", REFERENCE_MATRICES)
    def test_reproduces_reference_values(self, counts, percentages, accuracy):
        report = metrics.metrics(np.array(counts))
        np.testing.assert_allclose(report["percentages"], percentages, atol=0.01)
        assert abs(round_half_up(report["accuracy"]) - accuracy) <= 0.01

    def test_reference_recalls(self):
        report = metrics.metrics(np.array([[9987, 135], [56, 9822]]))
        assert abs(round_half_up(report["tpr"]) - 99.44) <= 0.01
        assert abs(round_half_up(report["tnr"]) - 98.64) <= 0.01
        assert report["damage_detection_rate"] == report["tnr"]

    def test_symmetric_counts(self):
        report = metrics.metrics(np.array([[50, 50], [50, 50]]))
        np.testing.assert_array_equal(report["percentages"],
                                      [[50.0, 50.0], [50.0, 50.0]])
        assert report["accuracy"] == 50.0

    def test_columns_sum_to_hundred(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(1, 1000, size=(2, 2))
            report = metrics.metrics(counts)
            sums = np.sum(report["percentages"], axis=0)
            assert np.all(np.abs(sums - 100.0) <= 0.01)

    def test_prediction_swap_swaps_percentage_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = rng.integers(1, 500, size=(2, 2))
            base = metrics.metrics(counts)["percentages"]
            swapped = metrics.metrics(counts[::-1])["percentages"]
            np.testing.assert_array_equal(swapped, base[::-1])

    def test_empty_true_class_rejected(self):
        with pytest.raises(DataError, match="true label D"):
            metrics.metrics(np.array([[5, 0], [5, 0]]))

    def test_half_up_rounding(self):
        assert round_half_up(1.375) == 1.38
        assert round_half_up(0.125) == 0.13
        assert round_half_up(99.044999) == 99.04
        assert round_half_up(2.544) == 2.54


class TestReportFiles:
    def test_json_report_schema(self, tmp_path):
        report = metrics.metrics(np.array([[9987, 135], [56, 9822]]))
        metrics.write_report(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert set(payload) == {"counts", "percentages", "accuracy", "tpr",
                                "tnr", "damage_detection_rate", "support"}
        assert payload["counts"] == [[9987, 135], [56, 9822]]
        assert payload["accuracy"] == 99.04 or payload["accuracy"] == 99.05
        text = (tmp_path / "report.txt").read_text()
        assert "true H" in text and "accuracy" in text

    def test_rates_are_rounded_once_half_up(self, tmp_path):
        # TNR is exactly 1/800 = 0.125%: rounded half-up it is 0.13, while
        # formatting the unrounded rate would print 0.12.
        assert f"{100.0 * 1 / 800:.2f}" == "0.12"
        report = metrics.metrics(np.array([[799, 799], [1, 1]]))
        metrics.write_report(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload == report
        assert payload["tnr"] == payload["damage_detection_rate"] == 0.13
        assert payload["percentages"] == [[99.88, 99.88], [0.13, 0.13]]
        text = (tmp_path / "report.txt").read_text()
        assert "  TNR (damaged recall)     0.13%\n" in text
        assert "  damage detection rate    0.13%\n" in text
        assert "  predicted D      0.13%      0.13%\n" in text


def frames_of(rows, label="H", channel="c"):
    coeffs = np.array(rows, dtype=float)
    n = len(coeffs)
    return Frames(coeffs=coeffs, labels=np.full(n, LABELS.index(label)),
                  channels=np.zeros(n, dtype=np.int64), rot=np.full(n, 43.0),
                  index=np.arange(n), channel_ids=(channel,))


class TestScatterExport:
    def test_one_row_per_frame(self, tmp_path):
        frames = frames_of([np.arange(13) + i for i in range(25)])
        path = tmp_path / "scatter.tsv"
        rows = metrics.export_scatter(frames, (1, 2), path)
        assert rows == 25
        lines = path.read_text().splitlines()
        assert lines[0] == "c1\tc2\tlabel\tchannel"
        assert len(lines) == 26

    def test_columns_reflect_requested_coefficients(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = frames_of([rng.standard_normal(13) for _ in range(10)],
                           label="D", channel="A2_b2")
        path = tmp_path / "scatter.tsv"
        metrics.export_scatter(frames, (4, 13), path)
        matrix = frames.coeffs
        lines = path.read_text().splitlines()[1:]
        for i, line in enumerate(lines):
            a, b, label, channel = line.split("\t")
            assert float(a) == matrix[i][3]
            assert float(b) == matrix[i][12]
            assert label == "D" and channel == "A2_b2"

    def test_zero_index_rejected(self, tmp_path):
        frames = frames_of([np.zeros(13)])
        with pytest.raises(DataError):
            metrics.export_scatter(frames, (0, 2), tmp_path / "x.tsv")

    def test_out_of_range_index_rejected(self, tmp_path):
        frames = frames_of([np.zeros(13)])
        with pytest.raises(DataError):
            metrics.export_scatter(frames, (1, 14), tmp_path / "x.tsv")
