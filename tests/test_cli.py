import os
import re
import signal
import subprocess
import sys
import time

import pytest

from remotable.cli import main

HANDLE_SHAPE = re.compile(r"^remote\[endpoint=[^ ]+:\d+ id=[0-9a-f]{16}:\d+\]$")


def _spawn_serve(*extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "remotable", "serve", "--listen", "127.0.0.1:0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = []
    for line in proc.stdout:
        lines.append(line.rstrip("\n"))
        if line.startswith("serving on "):
            return proc, line[len("serving on "):].strip(), lines
    raise AssertionError(f"serve never came up; output was {lines!r}")


@pytest.fixture(scope="module")
def served():
    proc, endpoint, lines = _spawn_serve(
        "--bind", "obj=token", "--bind", "n=int:5", "--bind", "s=text:hi"
    )
    yield endpoint, lines
    proc.terminate()
    proc.wait(timeout=10)


def test_serve_announces_bindings(served):
    _, lines = served
    assert "obj bound in registry" in lines
    assert "n bound in registry" in lines


def test_lookup_prints_a_handle(served, capsys):
    endpoint, _ = served
    assert main(["client", "--connect", endpoint, "lookup", "obj"]) == 0
    assert HANDLE_SHAPE.match(capsys.readouterr().out.strip())


def test_map_prints_a_handle_not_the_value(served, capsys):
    endpoint, _ = served
    assert main(["client", "--connect", endpoint, "map", "obj", "to_text"]) == 0
    printed = capsys.readouterr().out.strip()
    assert HANDLE_SHAPE.match(printed)
    assert "token" not in printed


def test_get_of_a_mapped_handle_prints_the_text(served, capsys):
    endpoint, _ = served
    main(["client", "--connect", endpoint, "map", "obj", "to_text"])
    ref = capsys.readouterr().out.strip()
    assert main(["client", "--connect", endpoint, "get", ref]) == 0
    assert capsys.readouterr().out.strip() == "token#1"


def test_map_with_captures(served, capsys):
    endpoint, _ = served
    main(["client", "--connect", endpoint, "map", "n", "add", "10"])
    ref = capsys.readouterr().out.strip()
    main(["client", "--connect", endpoint, "get", ref])
    assert capsys.readouterr().out.strip() == "15"


def test_get_by_name_and_by_url_style_target(served, capsys):
    endpoint, _ = served
    assert main(["client", "--connect", endpoint, "get", "s"]) == 0
    assert capsys.readouterr().out.strip() == "hi"
    assert main(["client", "--connect", "127.0.0.1:1", "get", f"{endpoint}/s"]) == 0
    assert capsys.readouterr().out.strip() == "hi"


def test_stats_subcommand(served, capsys):
    endpoint, _ = served
    main(["client", "--connect", endpoint, "map", "n", "inc"])
    ref = capsys.readouterr().out.strip()
    main(["client", "--connect", endpoint, "get", ref])
    capsys.readouterr()
    assert main(["client", "--connect", endpoint, "stats", ref]) == 0
    assert capsys.readouterr().out.strip() == "serializations=1 gets=1"


def test_missing_name_exits_3(served, capsys):
    endpoint, _ = served
    assert main(["client", "--connect", endpoint, "get", "nope"]) == 3
    assert "nope" in capsys.readouterr().err


def test_opaque_get_exits_6(served, capsys):
    endpoint, _ = served
    assert main(["client", "--connect", endpoint, "get", "obj"]) == 6


def test_unknown_function_exits_5(served, capsys):
    endpoint, _ = served
    assert main(["client", "--connect", endpoint, "map", "n", "frobnicate"]) == 5


def test_wrong_arity_is_a_usage_error(served, capsys):
    endpoint, _ = served
    assert main(["client", "--connect", endpoint, "map", "n", "add"]) == 2


def test_bad_connect_endpoint_is_a_usage_error(capsys):
    assert main(["client", "--connect", "nonsense", "lookup", "x"]) == 2


def test_unreachable_host_exits_10(capsys):
    assert main(["client", "--connect", "127.0.0.1:1", "lookup", "x"]) == 10


def test_serve_rejects_unknown_constructor(capsys):
    assert main(["serve", "--listen", "127.0.0.1:0", "--bind", "obj=frob"]) == 2
    assert "frob" in capsys.readouterr().err


def test_serve_rejects_bad_listen(capsys):
    assert main(["serve", "--listen", "nonsense"]) == 2


@pytest.mark.parametrize("port", ["\u0667", "\uff17"])  # digits, but not ASCII ones
def test_serve_rejects_non_ascii_listen_port(capsys, port):
    assert main(["serve", "--listen", f"127.0.0.1:{port}"]) == 2


def test_serve_exits_cleanly_on_interrupt():
    proc, _, _ = _spawn_serve("--bind", "x=int:1")
    time.sleep(0.2)  # let it settle into the serving wait
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=10) == 0


def test_demo_records_are_tab_separated(capsys):
    assert main(["demo", "--output", "records", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    records = {}
    for line in out.strip().splitlines():
        experiment, key, value = line.split("\t")
        records[(experiment, key)] = value
    assert records[("session", "str_get")] == "token#1"
    assert records[("compose", "rc_get")] == "false"
    assert records[("locality", "on_serializations")] == "0"
    assert int(records[("locality", "off_serializations")]) >= 1
    assert records[("deferred", "deferred_frames")] == "2"
    assert records[("deferred", "eager_value")] == records[("deferred", "deferred_value")]


def test_demo_human_output_mentions_each_experiment(capsys):
    assert main(["demo", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("session", "compose", "locality", "deferred"):
        assert f"[{name}]" in out


def test_piping_into_a_short_reader_is_not_a_traceback():
    # e.g. `remotable demo | head -1` closes our stdout mid-run; here the
    # reader is gone before the demo starts, so its first write hits EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "remotable", "demo", "--seed", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.wait(timeout=30) == 1
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert "Traceback" not in stderr
