import pytest

from abimhd.config import ConfigError, RunConfig, parse_config_text


class TestParser:
    def test_sections_and_comments(self):
        text = ("# leading comment\n"
                "top = 1\n"
                "[grid]\n"
                "n = 32   # trailing comment\n"
                "\n"
                "[run]\n"
                "dt = 1e-4\n"
                "name = single mode\n")
        out = parse_config_text(text)
        assert out == {"top": "1", "grid.n": "32", "run.dt": "1e-4",
                       "run.name": "single mode"}

    def test_rejects_bare_words(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("nonsense\n")

    def test_rejects_empty_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("[]\n")

    def test_rejects_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 3\n")


class TestTypedAccess:
    def test_int_validation(self):
        cfg = RunConfig({"n": "31"})
        assert cfg.get_int("n", minimum=4) == 31
        with pytest.raises(ConfigError, match=">= 40"):
            cfg.get_int("n", minimum=40)
        with pytest.raises(ConfigError, match="missing"):
            cfg.get_int("absent")
        assert cfg.get_int("absent", 7) == 7

    def test_float_validation(self):
        cfg = RunConfig({"eps": "0.25", "bad": "abc"})
        assert cfg.get_float("eps", exclusive_min=0.0) == 0.25
        with pytest.raises(ConfigError, match="number"):
            cfg.get_float("bad")
        with pytest.raises(ConfigError, match="> 0.5"):
            cfg.get_float("eps", exclusive_min=0.5)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_numbers_rejected(self, raw):
        cfg = RunConfig({"x": raw, "xs": f"0.1 {raw}"})
        with pytest.raises(ConfigError, match="finite"):
            cfg.get_float("x")
        with pytest.raises(ConfigError, match="finite"):
            cfg.get_float_list("xs")

    def test_bool_and_list(self):
        cfg = RunConfig({"flag": "true", "off": "0",
                         "sched": "0.2, 0.1 0.05"})
        assert cfg.get_bool("flag") is True
        assert cfg.get_bool("off") is False
        assert cfg.get_bool("absent", True) is True
        assert cfg.get_float_list("sched") == [0.2, 0.1, 0.05]
        with pytest.raises(ConfigError):
            RunConfig({"flag": "maybe"}).get_bool("flag")
