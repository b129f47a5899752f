"""CLI: every subcommand through main(argv)."""

import pytest

from repro.appel.serializer import serialize_ruleset
from repro.cli import main
from repro.corpus.volga import VOLGA_POLICY_XML
from repro.corpus.preferences import low_preference


@pytest.fixture()
def policy_file(tmp_path):
    path = tmp_path / "policy.xml"
    path.write_text(VOLGA_POLICY_XML, encoding="utf-8")
    return str(path)


@pytest.fixture()
def preference_file(tmp_path):
    path = tmp_path / "pref.xml"
    path.write_text(serialize_ruleset(low_preference()), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_policy(self, policy_file, capsys):
        assert main(["validate", policy_file]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_invalid_policy(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<POLICY discuri='http://x/p'></POLICY>",
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "no STATEMENT" in capsys.readouterr().out

    def test_unparseable_policy(self, tmp_path, capsys):
        path = tmp_path / "broken.xml"
        path.write_text("<POLICY", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestShred:
    def test_in_memory(self, policy_file, capsys):
        assert main(["shred", policy_file]) == 0
        out = capsys.readouterr().out
        assert "statements=2" in out

    def test_to_file(self, policy_file, tmp_path, capsys):
        db_path = str(tmp_path / "policies.db")
        assert main(["shred", policy_file, "-o", db_path]) == 0
        import sqlite3

        connection = sqlite3.connect(db_path)
        count = connection.execute(
            "SELECT COUNT(*) FROM statement").fetchone()[0]
        assert count == 2


class TestTranslate:
    def test_sql_dialect(self, preference_file, capsys):
        assert main(["translate", preference_file]) == 0
        out = capsys.readouterr().out
        assert "SELECT 'block'" in out
        assert "FROM purpose" in out

    def test_generic_dialect(self, preference_file, capsys):
        assert main(["translate", preference_file,
                     "--dialect", "sql-generic"]) == 0
        assert "FROM telemarketing" in capsys.readouterr().out

    def test_xquery_dialect(self, preference_file, capsys):
        assert main(["translate", preference_file,
                     "--dialect", "xquery"]) == 0
        assert 'document("applicable-policy")' in capsys.readouterr().out


class TestMatch:
    @pytest.mark.parametrize("engine", ["appel", "sql", "sql-generic",
                                        "xquery", "xquery-native"])
    def test_engines(self, engine, policy_file, preference_file, capsys):
        assert main(["match", policy_file, preference_file,
                     "--engine", engine]) == 0
        assert "behavior=request" in capsys.readouterr().out

    def test_block_exit_code(self, policy_file, tmp_path, capsys):
        from repro.corpus.preferences import very_high_preference

        pref = tmp_path / "vh.xml"
        pref.write_text(serialize_ruleset(very_high_preference()),
                        encoding="utf-8")
        assert main(["match", policy_file, str(pref)]) == 3
        assert "behavior=block" in capsys.readouterr().out

    def test_match_all_runs_the_corpus(self, preference_file, capsys):
        assert main(["match", "--all", preference_file,
                     "--corpus-size", "6"]) == 0
        out = capsys.readouterr().out
        assert "6 policies" in out
        assert "6 decisions materialized" in out
        assert "6 hit(s), 0 miss(es)" in out

    def test_match_without_preference_errors(self, policy_file, capsys):
        assert main(["match", policy_file]) == 2
        assert "PREFERENCE file is required" in capsys.readouterr().err


class TestCorpus:
    def test_emits_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", "-o", str(out_dir)]) == 0
        policies = list(out_dir.glob("policy-*.xml"))
        preferences = list(out_dir.glob("preference-*.xml"))
        assert len(policies) == 29
        assert len(preferences) == 5
        assert "29 policies" in capsys.readouterr().out


class TestNotice:
    def test_notice_renders(self, policy_file, capsys):
        assert main(["notice", policy_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Privacy notice for volga")
        assert "only with your consent" in out


class TestExplain:
    def test_explain_request(self, policy_file, preference_file, capsys):
        assert main(["explain", policy_file, preference_file]) == 0
        out = capsys.readouterr().out
        assert "outcome: 'request'" in out
        assert "did not fire" in out

    def test_explain_block_exit_code(self, policy_file, tmp_path, capsys):
        from repro.corpus.preferences import very_high_preference

        pref = tmp_path / "vh.xml"
        pref.write_text(serialize_ruleset(very_high_preference()),
                        encoding="utf-8")
        assert main(["explain", policy_file, str(pref)]) == 3
        assert "FIRED" in capsys.readouterr().out


class TestReport:
    def test_corpus_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Vocabulary census" in out
        assert "Consent profile" in out
        assert "Very High" in out

    def test_report_on_files(self, policy_file, capsys):
        assert main(["report", policy_file]) == 0
        assert "1 policies" in capsys.readouterr().out


class TestBench:
    def test_fast_experiments(self, capsys):
        assert main(["bench", "dataset-stats", "preference-stats"]) == 0
        out = capsys.readouterr().out
        assert "Dataset" in out
        assert "Figure 19" in out

    def test_unknown_experiment(self, capsys):
        assert main(["bench", "figure99"]) == 2


class TestServe:
    """The serve subcommand, run on a worker thread via the test hook."""

    def _run_server(self, argv, monkeypatch):
        import threading

        from repro import cli

        started = threading.Event()
        state = {}

        def hook(httpd):
            state["httpd"] = httpd
            started.set()

        monkeypatch.setattr(cli, "_SERVE_STARTED_HOOK", hook)

        def target():
            state["exit"] = cli.main(argv)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        assert started.wait(timeout=10), "server never started"
        return thread, state

    def test_serve_answers_and_shuts_down_cleanly(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.net.client import HttpClientAgent

        ready = tmp_path / "ready"
        thread, state = self._run_server(
            ["serve", "--db", str(tmp_path / "serve.db"),
             "--port", "0", "--ready-file", str(ready)],
            monkeypatch)
        httpd = state["httpd"]
        try:
            host, port = ready.read_text(encoding="utf-8").split()
            assert int(port) == httpd.port
            with HttpClientAgent(f"http://{host}:{port}") as agent:
                assert agent.wait_until_healthy(timeout=5)
                assert agent.health()["status"] == "ok"
        finally:
            httpd.shutdown()
            thread.join(timeout=10)
        assert state["exit"] == 0
        out = capsys.readouterr().out
        assert "serving on http://" in out
        assert "check-log rows durable" in out

    def test_serve_flushes_checks_before_exit(self, tmp_path,
                                              monkeypatch):
        import sqlite3

        from repro.corpus.volga import (VOLGA_POLICY_XML,
                                        VOLGA_REFERENCE_XML,
                                        jane_preference)
        from repro.net.client import HttpClientAgent

        db = tmp_path / "durable.db"
        thread, state = self._run_server(
            ["serve", "--db", str(db), "--port", "0",
             "--max-inflight", "8"], monkeypatch)
        httpd = state["httpd"]
        try:
            with HttpClientAgent(httpd.base_url,
                                 jane_preference()) as agent:
                agent.install_policy(
                    VOLGA_POLICY_XML, site="volga.example.com",
                    reference_file=VOLGA_REFERENCE_XML)
                for index in range(3):
                    agent.check("volga.example.com", f"/catalog/{index}")
            assert httpd.admission.max_inflight == 8
        finally:
            httpd.shutdown()
            thread.join(timeout=10)
        assert state["exit"] == 0
        connection = sqlite3.connect(str(db))
        try:
            count = connection.execute(
                "SELECT COUNT(*) FROM check_log").fetchone()[0]
        finally:
            connection.close()
        assert count == 3

    def test_serve_rejects_engine_option(self, capsys):
        """Checks run one plan shape; serve has no engine to choose."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "structural"])
        assert "--engine" in capsys.readouterr().err

    def test_bench_http_load_listed(self):
        from repro import cli

        assert "http-load" in cli._BENCH_EXPERIMENTS


@pytest.fixture()
def shadowed_preference_file(tmp_path):
    """Catch-all first: the second rule is unreachable."""
    from repro.appel.model import expression, rule, ruleset

    rs = ruleset(
        rule("request"),
        rule("block", expression(
            "POLICY", expression("STATEMENT", expression(
                "PURPOSE", expression("telemarketing"),
                connective="or")))),
    )
    path = tmp_path / "shadowed.xml"
    path.write_text(serialize_ruleset(rs), encoding="utf-8")
    return str(path)


class TestLint:
    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "ok.py").write_text(
            'db.execute("SELECT * FROM t WHERE id = ?", (x,))\n',
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "ok.py"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_new_finding_exits_nonzero(self, tmp_path, capsys,
                                       monkeypatch):
        server = tmp_path / "server"
        server.mkdir()
        (server / "bad.py").write_text(
            "import sqlite3\nsqlite3.connect(':memory:')\n",
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "server"]) == 1
        out = capsys.readouterr().out
        assert "sqlite-connect" in out and "bad.py:2" in out

    def test_baseline_grandfathers_findings(self, tmp_path, capsys,
                                            monkeypatch):
        server = tmp_path / "server"
        server.mkdir()
        (server / "bad.py").write_text(
            "import sqlite3\nsqlite3.connect(':memory:')\n",
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "server", "--update-baseline"]) == 0
        assert main(["lint", "server"]) == 0
        assert "grandfathered" in capsys.readouterr().out
        # A fresh violation still gates even with the baseline present.
        (server / "worse.py").write_text(
            'db.execute(f"SELECT {x}")\n', encoding="utf-8")
        assert main(["lint", "server"]) == 1


class TestAudit:
    def test_explicit_files_clean(self, policy_file, preference_file,
                                  capsys):
        assert main(["audit", policy_file,
                     "-p", preference_file, "--no-literal"]) == 0
        out = capsys.readouterr().out
        assert "full scans of hot tables: 0" in out
        assert "differential OK" in out

    def test_literal_pipeline_audited_by_default(self, policy_file,
                                                 preference_file, capsys):
        assert main(["audit", policy_file, "-p", preference_file]) == 0
        assert "statement(s) explained" in capsys.readouterr().out

    def test_unreachable_rule_reported(self, policy_file,
                                       shadowed_preference_file, capsys):
        code = main(["audit", policy_file,
                     "-p", shadowed_preference_file, "--no-literal"])
        out = capsys.readouterr().out
        assert "unreachable-rule" in out
        assert "differential OK" in out
        assert code == 0  # informational: the plans themselves are clean


class TestPreferenceLoadWarnings:
    def test_translate_prints_lint_to_stderr(self, tmp_path, capsys,
                                             shadowed_preference_file):
        assert main(["translate", shadowed_preference_file]) == 0
        err = capsys.readouterr().err
        assert "unreachable-rule" in err

    def test_match_prints_lint_to_stderr(self, policy_file, capsys,
                                         shadowed_preference_file):
        main(["match", policy_file, shadowed_preference_file])
        assert "unreachable-rule" in capsys.readouterr().err

    def test_clean_preference_is_silent(self, policy_file,
                                        preference_file, capsys):
        main(["match", policy_file, preference_file])
        assert "lint:" not in capsys.readouterr().err
