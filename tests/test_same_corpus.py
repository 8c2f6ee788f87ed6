"""The sameness corpus of ``same_sweep_konrad.py``: the same lines and files for a seed, and
every subcommand, format and input kind among them. Only the corpus is built; no command runs."""

from same_sweep_konrad import COMMANDS, build, split_env


def _build(workdir):
    workdir.mkdir()
    lines = build(17, 406, workdir)
    files = {path.name: path.read_bytes() for path in workdir.iterdir()}
    return [[arg.replace(str(workdir), "<dir>") for arg in line] for line in lines], files


def test_corpus_is_deterministic_for_a_seed(tmp_path):
    assert _build(tmp_path / "a") == _build(tmp_path / "b")


def test_corpus_reaches_every_subcommand_format_and_input_kind(tmp_path):
    lines, files = _build(tmp_path / "corpus")
    split = [split_env(line) for line in lines]
    assert {argv[0] for _, argv in split} == set(COMMANDS) and len(COMMANDS) == 7
    assert {argv[argv.index("--format") + 1] for _, argv in split if "--format" in argv} == {"json", "tsv"}
    assert {tol for tol, _ in split} == {None, "1e-12", "1e-6", "1e-4", "2e-4", "nan", "abc"}

    def file_flags(flag):
        return {argv[0] for _, argv in split for a, b in zip(argv, argv[1:]) if a == flag and b.startswith("<dir>/")}

    assert file_flags("--protocol") == {"theorem1"}
    assert file_flags("--state") == {"map", "entanglement", "locc"}
    assert file_flags("--alice") == file_flags("--bob") == {"map", "entanglement", "locc"}
    assert file_flags("--measurements") == {"map"}
    assert len(files) > 100
