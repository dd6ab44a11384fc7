from vvlab.coupling import QEstimate, QSeries
from vvlab.io import format_float, write_csv, write_q_csv


class TestCsv:
    def test_format_float_round_trips(self):
        for x in (0.1, 1e-300, 3.141592653589793, -2.5e17):
            assert float(format_float(x)) == x

    def test_write_csv_layout(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [(1.5, 2), (0.1, 3)])
        assert p.read_text() == "a,b\n1.5,2\n0.1,3\n"

    def test_q_csv(self, tmp_path):
        series = QSeries(entries=[QEstimate(time=0.1, q_plus=1.0, q_minus=0.5, stderr=0.01)])
        p = tmp_path / "q.csv"
        write_q_csv(p, series)
        assert p.read_text() == "t,q_plus,q_minus,q,stderr\n0.1,1.0,0.5,1.5,0.01\n"
