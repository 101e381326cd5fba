"""Seeded mutation sweep over the files the CLI reads; first format: the
cluster CSV.

Each mutant of a small valid file goes through ``load_clusters``.  The
oracle: the mutant loads and equals ``reference_clusters``, this file's own
reader, or it raises ``ValueError`` whose message starts with the path and
names a line that the reference finds bad (only a file with no centre at all
is named without a line).  A sample of the rejected mutants also goes
through ``taxidest train --clusters``, which must exit 2 and name the file.
The sweep's size is fixed below, before it runs.
"""

import io
import random

import pytest

from taxidest import cli, fixtures
from taxidest.clustering import load_clusters

SEED = 18
BYTE_EDIT_MUTANTS = 2000  # each one to three edits; then one truncation per byte of VALID
CLI_SAMPLE = 6

VALID = (
    b"lat,lon\n"
    b"41.149999999999999,-8.6099999999999994\n"
    b"41.18,-8.5999999999999996\r\n"
    b"\n"
    b"-0.5,1e-05\n"
    b" 41.237 , -8.67\n"
)
# Bytes that the format or UTF-8 gives a meaning to, drawn as often as all others.
SALIENT = b"0123456789.,+-eE_ \t\r\n\x0c\x1cnaif\x80\xc3\xff"


def reference_clusters(data: bytes):
    """``(centres, bad_lines)``: the centres as ``[lat, lon]`` lists, or None and
    the 1-based lines at fault.  Lines are read as a text-mode reader reads
    them (universal newlines), and a byte that is not UTF-8 is kept as a
    surrogate that marks its line bad."""
    lines = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    if not lines or lines[0].strip() != "lat,lon":
        return None, {1}
    centres, bad = [], set()
    for n, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text:
            continue
        try:
            if not line.endswith("\n") or any("\udc80" <= c <= "\udcff" for c in line):
                raise ValueError
            lat, lon = map(float, text.split(","))
        except ValueError:
            bad.add(n)
            continue
        if not (abs(lat) <= 90 and abs(lon) <= 180):
            bad.add(n)
        centres.append([lat, lon])
    if bad or not centres:
        return None, bad
    return centres, bad


def mutants(rng: random.Random):
    for _ in range(BYTE_EDIT_MUTANTS):
        data = bytearray(VALID)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(data))
            byte = rng.choice(SALIENT) if rng.random() < 0.5 else rng.randrange(256)
            edit = rng.randrange(3)
            if edit == 0:
                data[pos] = byte
            elif edit == 1:
                data.insert(pos, byte)
            else:
                del data[pos]
        yield bytes(data)
    for cut in range(len(VALID)):
        yield VALID[:cut]


def check_cluster_mutant(path, data: bytes) -> bool:
    """Apply the oracle to one mutant; True if it was rejected."""
    centres, bad = reference_clusters(data)
    path.write_bytes(data)
    try:
        got = load_clusters(path)
    except ValueError as e:
        msg = str(e)
        assert centres is None, f"{data!r} was rejected ({msg}) but parses as {centres}"
        assert msg.startswith(f"{path}:"), f"{data!r}: {msg}"
        where = msg[len(str(path)) + 1 :].split(":", 1)[0]
        if bad:
            assert where.isdigit() and int(where) in bad, f"{data!r}: {msg} names none of lines {sorted(bad)}"
        else:
            assert msg == f"{path}: no cluster centers found", f"{data!r}: {msg}"
        return True
    assert centres is not None, f"{data!r} loaded, but lines {sorted(bad)} are bad"
    assert got.centers.tolist() == centres, f"{data!r}"
    return False


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    fixtures.generate_city_csv(root / "city.csv", 30, seed=2)
    out = root / "data"
    argv = ["prepare", "--input", str(root / "city.csv"), "--out", str(out), "--val", "4", "--test", "0"]
    assert cli.main(argv) == 0
    return out


def test_cluster_csv_mutants(tmp_path, prepared_dir, capsys):
    path = tmp_path / "clusters.csv"
    assert not check_cluster_mutant(path, VALID)
    rejected = [data for data in mutants(random.Random(SEED)) if check_cluster_mutant(path, data)]
    total = BYTE_EDIT_MUTANTS + len(VALID)
    assert 0 < len(rejected) < total  # both outcomes occur
    capsys.readouterr()
    for data in rejected[:: len(rejected) // CLI_SAMPLE][:CLI_SAMPLE]:
        path.write_bytes(data)
        out = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--data", str(prepared_dir), "--clusters", str(path), "--out", str(out)])
        assert rc == 2, f"{data!r}"
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

