import json

from berncert import CertifyConfig, certify, parse_polynomial, standard_simplex
from berncert.cli import main


def test_degree_cap_defaults_to_the_start_degree():
    assert CertifyConfig().degree_cap(4) == 4
    assert CertifyConfig(max_degree=6).degree_cap(4) == 6
    assert CertifyConfig(max_degree=2).degree_cap(4) == 2


def test_cli_reports_the_cap_the_search_used(capsys):
    p = parse_polynomial("x1^2 - x1*x2 + x2^2")
    for flags, cap in (([], 2), (["--max-degree", "5"], 5)):
        assert main(["certify", str(p), "--max-depth", "1", "--json", *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_degree"] == cap
        config = CertifyConfig(max_depth=1, max_degree=cap)
        tree = certify(p, standard_simplex(2), config)
        assert max(leaf.form.degree for leaf in tree.leaves()) <= config.degree_cap(p.degree)
