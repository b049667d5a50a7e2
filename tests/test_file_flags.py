"""Every file flag of every command, given a path it cannot read or write.

Each input flag gets, in turn, a missing path, a directory and a file with a
byte that is not UTF-8: the command must exit 3, name the path on stderr
and print no traceback. Each output flag gets a directory in the place of
the file it writes (a regular file in the place of an ``--out-dir``) and a
path under a regular file: the command must exit 2, name the path in the
way, write no file and leave behind no directory it made. The runs are
in-process, through ``posmap.cli.main``.
"""

from __future__ import annotations

import argparse
import shutil
from pathlib import Path

import pytest

from posmap.cli import (_DirOutput, _Input, _Output, _RasterInput, _RasterOutput, build_parser,
                        main)

# every command with every file flag set: {s} is the scene, {o} the output directory
COMMANDS = [
    "calibrate intrinsics --views {s}/views.json --image-size 1920 1080 --out {o}/intr.json",
    "calibrate extrinsics --intrinsics {s}/intr.json --points {s}/points.csv "
    "--out {o}/cam.json",
    "project --camera {s}/camera.json --pixel 960 700",
    "map --camera {s}/camera.json --annotations {s}/gt.json --taxonomy {s}/tax.json "
    "--extent {s}/extent.json --out {o}/obs.csv",
    "density --observations {s}/obs.csv --extent {s}/extent.json --merge {s}/r --out {o}/d",
    "eval --gt {s}/gt.json --detections {s}/scored.json --iou-mode bbox --treatment merging "
    "--taxonomy {s}/tax.json --out {o}/e.json --pr-curves {o}/pr.csv",
    "diagnose --gt {s}/gt.json --detections {s}/scored.json --iou-mode bbox --out {o}/diag.json",
    "stats --annotations {s}/gt.json --taxonomy {s}/tax.json --out {o}/stats.json",
    "filter-annotations --detections {s}/scored.json --out {o}/kept.json",
    "export-labelme --annotations {s}/gt.json --out-dir {o}/lm",
    "simulate --frames 2 --agents 3 --extent {s}/extent.json --out-dir {o}/sim",
    "split --annotations {s}/gt.json --fraction 0.5 --out-train {o}/tr.json "
    "--out-test {o}/te.json",
]


def _file_flags(parser: argparse.ArgumentParser, command: str = ""):
    """(command, flag) -> parser type of every file argument the parser declares."""
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags.update(_file_flags(sub, f"{command} {name}".strip()))
        elif isinstance(action.type, type) and issubclass(action.type, (_Input, _Output)):
            flags[command, action.option_strings[0]] = action.type
    return flags


FLAGS = _file_flags(build_parser())


def _command(words: list[str]) -> str:
    return " ".join(words[:2] if words[0] == "calibrate" else words[:1])


def _cases(kind: type, faults: tuple[str, ...]) -> list:
    """A parameter per fault of each ``kind`` flag: (index into COMMANDS, flag, fault).

    A raster input's faults are each tried on its ``.json`` header and on its
    ``.csv`` cells.
    """
    cases = []
    for i, argv in enumerate(COMMANDS):
        words = argv.split()
        for flag in words:
            found = FLAGS.get((_command(words), flag), str)
            if issubclass(found, kind):
                suffixes = (".json", ".csv") if found is _RasterInput else ("",)
                cases += [pytest.param(i, flag, fault + suffix,
                                       id=f"{_command(words)} {flag} {fault}{suffix}")
                          for fault in faults for suffix in suffixes]
    return cases


INPUTS = _cases(_Input, ("missing", "directory", "not-utf8"))
OUTPUTS = _cases(_Output, ("in-the-way", "under-a-file"))


def test_the_cases_cover_every_file_flag():
    covered = {(_command(COMMANDS[case.values[0]].split()), case.values[1])
               for case in INPUTS + OUTPUTS}
    assert covered == set(FLAGS)


def _flag(index: int, flag: str, scene: Path, out: Path) -> tuple[list[str], Path, type]:
    """The command's arguments, the value of ``flag`` and its parser type."""
    words = COMMANDS[index].format(s=scene, o=out).split()
    return words, Path(words[words.index(flag) + 1]), FLAGS[_command(words), flag]


def _run(words: list[str], flag: str, value: Path, capsys) -> tuple[int, str]:
    """``main`` on ``words`` with ``flag`` set to ``value``: its exit code and stderr."""
    words = list(words)
    words[words.index(flag) + 1] = str(value)
    capsys.readouterr()
    code = main(words)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("index, flag, fault", INPUTS)
def test_an_input_that_cannot_be_read_exits_3_naming_it(scene, tmp_path, capsys, index, flag,
                                                         fault):
    words, value, kind = _flag(index, flag, scene, tmp_path / "out")
    given = tmp_path / value.name
    fault, _, suffix = fault.partition(".")
    if suffix:  # a raster base: the other file is the scene's
        other = {"json": "csv", "csv": "json"}[suffix]
        shutil.copy(f"{value}.{other}", f"{given}.{other}")
        value, named = Path(f"{value}.{suffix}"), Path(f"{given}.{suffix}")
    else:
        named = given
    if fault == "directory":
        named.mkdir()
    elif fault == "not-utf8":
        data = value.read_bytes()
        named.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2:])
    code, err = _run(words, flag, given, capsys)
    assert code == 3, err
    assert str(named) in err, err


@pytest.mark.parametrize("index, flag, fault", OUTPUTS)
def test_an_output_that_cannot_be_written_exits_2_naming_it(scene, tmp_path, capsys, index,
                                                             flag, fault):
    words, value, kind = _flag(index, flag, scene, tmp_path / "out")
    if fault == "in-the-way":
        # a directory where the command writes its first file, a file for a directory
        given = tmp_path / value.name
        named = given.with_name(f"{value.name}.csv") if kind is _RasterOutput else given
        if kind is _DirOutput:
            named.write_text("a regular file\n")
        else:
            named.mkdir()
    else:
        named = tmp_path / "a-file"
        named.write_text("a regular file\n")
        given = named / value.name
    before = set(tmp_path.rglob("*"))
    code, err = _run(words, flag, given, capsys)
    assert code == 2, err
    assert str(named) in err, err
    # every other output goes to tmp_path / "out", which the run would make
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, in_the_way", [
    ("density", "d.json"), ("density", "d.pgm"), ("density", "d.manifest.json"),
    ("eval", "e.manifest.json"), ("split", "tr.manifest.json"),
])
def test_a_directory_where_a_raster_part_or_the_manifest_goes_is_refused_before_the_run(
        scene, tmp_path, capsys, command, in_the_way):
    out = tmp_path / "out"
    (out / in_the_way).mkdir(parents=True)
    before = set(tmp_path.rglob("*"))
    argv = next(c for c in COMMANDS if c.split()[0] == command)
    capsys.readouterr()
    assert main(argv.format(s=scene, o=out).split()) == 2
    assert str(out / in_the_way) in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before
