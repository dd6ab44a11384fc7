from tests.conftest import small_config
from vvlab.coupling import QEstimate, QSeries
from vvlab.harness import RateSeries, emit_report
from vvlab.io import format_float, write_csv


class TestCsv:
    def test_format_float_round_trips(self):
        for x in (0.1, 1e-300, 3.141592653589793, -2.5e17):
            assert float(format_float(x)) == x

    def test_write_csv_layout(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [(1.5, 2), (0.1, 3)])
        assert p.read_text() == "a,b\n1.5,2\n0.1,3\n"

    def test_q_csv(self, tmp_path):
        # a Q table as the report writes it, its columns QEstimate's fields
        entries = [QEstimate(t=0.1, q_plus=1.0, q_minus=0.5, stderr=0.01)]
        series = RateSeries(rows=[], fits={}, q_series={1e-3: QSeries(entries=entries)},
                            lemma1={}, lemma1_stable=False, invariant_violations=[],
                            flags={}, errors=[])
        emit_report(series, small_config(), tmp_path)
        text = (tmp_path / "q_nu_0.001.csv").read_text()
        assert text == "t,q_plus,q_minus,q,stderr\n0.1,1.0,0.5,1.5,0.01\n"
