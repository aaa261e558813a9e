"""End-to-end tests of the command-line interface via dispatch()."""

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from diffsets import cli, core_sets
from diffsets.cli import dispatch
from diffsets.constructions import best_shift_union, parabola_set, random_group_subset
from diffsets.core_sets import GroupSpec, GroupSubset


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


def run_in_2gb(*argv):
    """The CLI in a fresh process under 2 GB of address space, as in CI: an
    input whose arrays outgrow it exits 2 with an error line unless refused
    earlier."""

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 2_000_000 * 1024
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = "import sys; from diffsets.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=env, text=True, preexec_fn=cap
    )
    return out.returncode, out.stdout, out.stderr


@pytest.fixture
def int_set_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps([0, 1, 3]))
    return str(path)


@pytest.fixture
def group_set_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"invariant_factors": [7], "elements": [[1], [2], [4]]})
    )
    return str(path)


class TestVerify:
    def test_pass(self, capsys, int_set_file):
        code, out, _ = run_cli(
            capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3"
        )
        assert code == 0
        assert out == "PASS achieved_g=1\n"

    def test_fail_prints_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([0, 1]))
        code, payload, _ = run_json(
            capsys, "verify", "--set", str(path), "--g", "2", "--N", "10"
        )
        assert code == 1
        assert payload["verdict"] == {"passed": False, "achieved_g": 0, "witness": 1}

    def test_group_set(self, capsys, group_set_file):
        code, payload, _ = run_json(
            capsys, "verify", "--set", group_set_file, "--g", "1"
        )
        assert code == 0
        assert payload["verdict"]["passed"] is True
        code, _, err = run_cli(
            capsys, "verify", "--set", group_set_file, "--g", "1", "--N", "7"
        )
        assert code == 2 and "integer sets" in err

    def test_missing_or_stray_N_is_refused(self, capsys, int_set_file, group_set_file):
        for path, N in ((int_set_file, []), (group_set_file, ["--N", "3"])):
            code, out, err = run_cli(capsys, "verify", "--set", path, "--g", "1", *N)
            assert code == 2 and out == "" and err.startswith("error: N ")

    def test_oracle_recount_matches(self, capsys, int_set_file, group_set_file):
        code, payload, _ = run_json(
            capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3", "--oracle"
        )
        assert code == 0
        assert payload["oracle"] == {"checked": True, "achieved_g": 1, "match": True}
        code, payload, _ = run_json(
            capsys, "verify", "--set", group_set_file, "--g", "1", "--oracle"
        )
        assert code == 0 and payload["oracle"]["match"] is True

    @pytest.mark.parametrize(
        "elements, argv, oracle",
        [
            (
                [1, 2, 4],
                ["--mode", "sidon", "--g", "2", "--N", "4"],
                {"checked": True, "achieved_g": 2, "match": True},
            ),
            (
                {"invariant_factors": [7], "elements": [[1], [2], [4]]},
                ["--mode", "sidon", "--g", "2"],
                {"checked": True, "achieved_g": 2, "match": True},
            ),
            # 501^2 pairs, over the recount's 250,000
            (list(range(1, 502)), ["--g", "1", "--N", "500"], {"checked": False, "reason": "instance too large"}),
        ],
        ids=["sidon-integers", "sidon-group", "too-large"],
    )
    def test_oracle_sidon_recounts_and_large_skip(self, capsys, tmp_path, elements, argv, oracle):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(elements))
        code, payload, _ = run_json(capsys, "verify", "--set", str(path), *argv, "--oracle")
        assert code == 0 and payload["oracle"] == oracle

    def test_pair_work_over_the_order_limit_is_refused(self, tmp_path):
        # 20,000 elements of [1, 10^12): a difference window of 2 * 10^8
        # shifts, or 4 * 10^8 sorted sum pairs, each past 50,000,000 slots
        path = tmp_path / "far.json"
        path.write_text(json.dumps(sorted(random.Random(12).sample(range(1, 10**12), 20_000))))
        for mode in ("difference", "sidon"):
            argv = ["--set", str(path), "--g", "2", "--N", str(10**12 + 1), "--mode", mode]
            code, out, err = run_in_2gb("verify", *argv)
            assert (code, out) == (2, ""), err
            assert err.startswith("error:") and "limit 50000000" in err

    @pytest.mark.parametrize("headroom_mb", [100, 250])
    def test_out_of_memory_exits_2(self, tmp_path, headroom_mb):
        # 36,934 elements over [0, 10^7) for [1, 10^7]: a product over a hull
        # of 10^7 cells.  The child caps its own address space a little above
        # what it holds after import; numpy's or libmpdec's MemoryError must
        # exit 2 with one error line, not 1 (a false claim) with a traceback
        path = tmp_path / "big.json"
        rng = random.Random(7)
        path.write_text(json.dumps(sorted(rng.sample(range(10**7), 36_934))))
        script = (
            "import resource, sys\n"
            "from diffsets.cli import dispatch\n"
            "kib = next(int(x.split()[1]) for x in open('/proc/self/status') if x.startswith('VmSize:'))\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "soft = (kib << 10) + (int(sys.argv[1]) << 20)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))\n"
            "sys.exit(dispatch(sys.argv[2:]))\n"
        )
        argv = [str(headroom_mb), "verify", "--set", str(path), "--g", "1", "--N", str(10**7)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env, text=True)
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr

    def test_bare_memory_error_names_itself(self, capsys, monkeypatch, int_set_file):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "verify_certificate", exhausted)
        code, out, err = run_cli(capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_sidon_mode(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([1, 2, 4]))
        code, _, _ = run_cli(
            capsys, "verify", "--set", str(path), "--mode", "sidon", "--g", "2",
            "--N", "4",
        )
        assert code == 0

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--set", str(tmp_path / "nope.json"), "--g", "1",
            "--N", "3",
        )
        assert code == 2 and "error" in err


class TestSetFiles:
    A01 = [0, 1]
    Z5 = {"invariant_factors": [5], "elements": [[0], [1], [2]]}

    @pytest.mark.parametrize(
        "command, files",
        [
            (("verify", "--g", "1", "--N", "1"), {"--set": [0, 1.7, "3", True]}),
            (("verify", "--g", "1"),
             {"--set": {"invariant_factors": [5], "elements": [[1.9], ["2"], [True]]}}),
            (("verify", "--g", "1"), {"--set": {"invariant_factors": [5], "elements": "12"}}),
            (("verify", "--g", "1"), {"--set": dict(Z5, invariant_factors="5")}),
            (("construct", "blowup", "--N", "1"),
             {"--A": A01, "--C": dict(Z5, elements=[[0], [1.5], [2]])}),
            (("verify", "--g", "1"), {"--set": {"invariant_factors": [5], "elements": [1, 2]}}),
            (("verify", "--g", "1", "--N", "1"), {"--set": [[1], [2]]}),
            (("verify", "--g", "1", "--N", "1"), {"--set": [10**20, 10**20 + 1]}),
        ],
        ids=[
            "int-set-floats-strings-bools", "group-vectors-not-integers",
            "group-elements-a-string", "group-factors-a-string", "blowup-C-float",
            "group-elements-not-vectors", "int-set-of-vectors", "int-set-beyond-int64",
        ],
    )
    def test_refuses_malformed_set_files(self, capsys, tmp_path, command, files):
        # entries must be JSON integers, not bools, within int64; group
        # vectors must be lists of the group's rank
        argv = list(command)
        for flag, data in files.items():
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(data))
            argv += [flag, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, files, message",
        [
            (("construct", "lift", "--s", "2"), {"--A": A01}, "--A must be a group-subset JSON file"),
            (("construct", "blowup", "--N", "1"), {"--A": Z5, "--C": Z5},
             "--A must be an integer-set JSON array"),
            (("construct", "blowup", "--N", "1"), {"--A": A01, "--C": A01},
             "--C must be a group-subset JSON file"),
            (("bridge", "set-to-fn", "--g", "1", "--N", "2"), {"--set": Z5},
             "--set must be an integer-set JSON array"),
            (("bridge", "torus", "--g", "1"), {"--set": A01}, "--set must be a group-subset JSON file"),
        ],
        ids=["lift-A", "blowup-A", "blowup-C", "set-to-fn", "torus"],
    )
    def test_refuses_a_set_of_the_other_kind(self, capsys, tmp_path, command, files, message):
        argv = list(command)
        for flag, data in files.items():
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(data))
            argv += [flag, str(path)]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_payload_bytes_pinned(self, capsys, tmp_path):
        # payload digests frozen from the tuple-per-element IntSet and
        # GroupSubset, with decimal and pair paths both taken
        rng = random.Random(2026)
        sets = {
            "dense": sorted(rng.sample(range(3_000), 1_200)),
            "sidon": sorted(rng.sample(range(1, 2_001), 300)),
            "failing": sorted(rng.sample(range(2_000), 500)),
            "sparse": sorted(rng.sample(range(10**9), 60)),
            "group": {
                "invariant_factors": [12, 18],
                "elements": [[a, b] for a in range(12) for b in range(18) if rng.random() < 0.4],
            },
            "C": {"invariant_factors": [7], "elements": [[1], [2], [4]]},
        }
        path = {}
        for name, data in sets.items():
            path[name] = str(tmp_path / f"{name}.json")
            with open(path[name], "w") as fh:
                json.dump(data, fh)
        verify = ("verify", "--json", "--set")
        pinned = {
            (*verify, path["dense"], "--g", "1", "--N", "1000"):
                "ab6da7a45ecd5ca0d7f151b2d2401ac1ac9691082f12bdcf96059c1c21a48b63",
            (*verify, path["sidon"], "--g", "70", "--N", "2000", "--mode", "sidon"):
                "91bcb7dc504127ee89c9fb2211870fcfdb38b5bb6effa0e962c1516b6855cb3b",
            (*verify, path["failing"], "--g", "60", "--N", "1000"):
                "a00f66cf38a6a92f561a57b481eb45656a4011110e6b54b5085528d897e03522",
            (*verify, path["sparse"], "--g", "1", "--N", "50"):
                "6918f698f53ea98dc758ce0d678f2dccbd548cc78e11fb0759afed7ec8a86cfc",
            (*verify, path["group"], "--g", "20"):
                "5126f35ff8a48a5232bdbcc13328a605bedeb5be00f0d38477d15d4e8b13cc19",
            ("profile", "--json", "--set", path["dense"]):
                "2d2d39a245b549c7ba41e80ae86dd9a4d0cb5a1091ed073dbc860f5bd1d98a27",
            ("profile", "--json", "--set", path["group"], "--kind", "sum"):
                "bb251c580461a91a94c9aa59ce2c950b71eeb8d6ee5d3ae6c044e1126935de84",
            ("construct", "pipeline", "--json", "--k", "4", "--s", "3", "--p", "31"):
                "fdd50c6efdeb59a334d61dea6d7d50fe7a0a129c54f7284b147b31fa19851bff",
            ("construct", "blowup", "--json", "--A", path["dense"], "--N", "1000",
             "--C", path["C"]):
                "f6e8ea9cf1c51cb86765f99a35943b19a61618f762edba43645503ef2449642e",
        }
        # lifts counted by the generic group product before their plane's box
        # gave them; the p = 5 and 13, k = 2 planes have no positive g, so
        # those pipelines print nothing and exit 1
        empty = hashlib.sha256(b"").hexdigest()
        for (p, k, s), digest in {
            (5, 2, 2): empty,
            (5, 2, 3): empty,
            (5, 3, 2): "49770654c83593c7aea22d7e25ee348da9cec4ec87280c23118a01d02646f52d",
            (5, 3, 3): "d73f4922ab66c202e8d2a153cb46541a85f8821297490bfdb20b83fa675c1286",
            (7, 2, 2): "3386242fa79ba2a72e8aaee20bdc05d307e85c0c3f32c9dda10d9c95e05cedd1",
            (7, 2, 3): "ebdbc0aa5aeb152c112e4aa01c940813343be23b92ddbcc2a040c1df3bd23d41",
            (7, 3, 2): "dfc3e729da0014b5b896fca7724c4251e08c61e8503af8fea6486bded3de8e45",
            (7, 3, 3): "202c00190acdeb14792dca6fd273baf91f8905607fa5b763e50454c5391cf140",
            (11, 2, 2): "b770b873d85611a5110d3c314d79a291a07a2bfc6a936a80fd9babbe0ac2f3bd",
            (11, 2, 3): "c8b6ac326f1521b32e4c2950f00538ca4296d5138f5e003da727c6e34503e98f",
            (11, 3, 2): "010c1fc073ba2f19193feeeb5a7b899e7e32699503aa91a39540c0be1836a159",
            (11, 3, 3): "cd333b1c6ac53e77aa0589f15dcb9660b1b02e181789b0aedb5a8c8f355976e6",
            (13, 2, 2): empty,
            (13, 2, 3): empty,
            (13, 3, 2): "9da7246d59002fc231b9c186598168344d52f54fcb8fb4a318896e253bfd8490",
            (13, 3, 3): "eba8541e54c4b776d705812274241f619517764ad9e13917d656da35147930f4",
        }.items():
            pinned["construct", "pipeline", "--json", "--k", str(k), "--s", str(s), "--p", str(p)] = digest
        # construct lift --g on a plane that bins its pairs (k = 3) and one
        # that multiplies (k = 8)
        for p, k, s, g, digest in (
            (11, 3, 3, 5, "ad119859c166df79178da5ea5606b68fc93b8fb1d9409ff2c01ea5e7bd98ebd6"),
            (11, 8, 2, 52, "360f847ac77c5b49b3226ee7c479d6c4526347e86dc8ee9e8ec7215bdba789d8"),
        ):
            plane = str(tmp_path / f"plane{k}.json")
            with open(plane, "w") as fh:
                json.dump(best_shift_union(p, k).subset.to_json(), fh)
            pinned["construct", "lift", "--json", "--A", plane, "--s", str(s), "--g", str(g)] = digest
        for argv, digest in pinned.items():
            _, out, _ = run_cli(capsys, *argv)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class TestProfile:
    def test_difference_defaults(self, capsys, int_set_file):
        code, payload, _ = run_json(capsys, "profile", "--set", int_set_file)
        assert code == 0
        assert payload["shifts"] == [1, 2, 3]
        assert payload["counts"] == [1, 1, 1]

    def test_sum_window(self, capsys, int_set_file):
        code, payload, _ = run_json(
            capsys, "profile", "--set", int_set_file, "--kind", "sum",
            "--lo", "0", "--hi", "6",
        )
        assert code == 0
        assert payload["counts"][0] == 1  # 0 = 0+0
        assert payload["min_count"] == 0

    def test_group_profile(self, capsys, group_set_file):
        code, payload, _ = run_json(capsys, "profile", "--set", group_set_file)
        assert code == 0
        assert payload["min_count"] == 1 and payload["max_count"] == 3

    def test_group_over_the_profile_limit_is_refused(self, capsys, tmp_path):
        # Z/5000001 has one element more than a profile lists (5,000,000,
        # as for a window of shifts): refused before any count or dict
        path = tmp_path / "big.json"
        data = {"invariant_factors": [5_000_001], "elements": [[0], [1], [3], [7]]}
        path.write_text(json.dumps(data))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "profile", "--set", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and "too large" in err and "5000000" in err

    @pytest.mark.parametrize("flag", ["--lo", "--hi"])
    def test_window_on_a_group_set_is_refused(self, capsys, group_set_file, flag):
        code, out, err = run_cli(capsys, "profile", "--set", group_set_file, flag, "3")
        assert (code, out, err) == (2, "", "error: lo and hi apply only to integer sets\n")

    def test_empty_sets_refused(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        for data in ([], {"invariant_factors": [5], "elements": []}):
            path.write_text(json.dumps(data))
            for kind in ("difference", "sum"):
                code, _, err = run_cli(capsys, "profile", "--set", str(path), "--kind", kind)
                assert code == 2 and err == "error: empty set\n"


class TestConstruct:
    def test_parabola_single(self, capsys):
        code, payload, _ = run_json(
            capsys, "construct", "parabola", "--p", "5", "--u", "1", "--oracle"
        )
        assert code == 0
        expected = parabola_set(5, 1)
        assert payload["set"]["elements"] == [list(v) for v in expected.elements]
        assert payload["oracle"]["match"] is True

    def test_parabola_union(self, capsys):
        code, payload, _ = run_json(
            capsys, "construct", "parabola", "--p", "11", "--k", "3", "--oracle"
        )
        assert code == 0
        assert payload["t"] == 1 and payload["S_t"] == 5
        assert payload["verified_g"] == 5
        assert len(payload["elements"]) == 31
        assert payload["oracle"] == {"checked": True, "achieved_g": 5, "match": True}

    def test_parabola_needs_u_or_k(self, capsys):
        code, out, err = run_cli(capsys, "construct", "parabola", "--p", "5")
        assert (code, out) == (2, "") and "one of the arguments --u --k is required" in err

    def test_lift_with_certificate(self, capsys, tmp_path):
        code, union, _ = run_json(
            capsys, "construct", "parabola", "--p", "11", "--k", "3"
        )
        plane = tmp_path / "plane.json"
        plane.write_text(
            json.dumps({"invariant_factors": [11, 11], "elements": union["elements"]})
        )
        code, payload, _ = run_json(
            capsys, "construct", "lift", "--A", str(plane), "--s", "2", "--g", "5",
            "--oracle",
        )
        assert code == 0
        assert payload["modulus"] == 242
        assert payload["size"] == 62
        assert payload["certified_g"] == 5
        assert payload["oracle"]["match"] is True

    def test_lift_without_claim(self, capsys, tmp_path):
        plane = tmp_path / "plane.json"
        A = parabola_set(3, 1)
        plane.write_text(json.dumps(A.to_json()))
        code, payload, _ = run_json(
            capsys, "construct", "lift", "--A", str(plane), "--s", "4"
        )
        assert code == 0
        assert payload["modulus"] == 36 and payload["size"] == 12
        assert "certified_g" not in payload

    @pytest.mark.parametrize("claim", [[], ["--g", "1"]], ids=["no-g", "claim-below-1"])
    def test_lift_oracle_without_a_claim_says_so(self, capsys, tmp_path, claim):
        # with s = 1 the claim g * (s - 1) is 0: nothing to recount either way
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps(_PLANE))  # the whole of (Z/3)^2 passes g = 1
        code, payload, err = run_json(
            capsys, "construct", "lift", "--A", str(plane), "--s", "1", *claim, "--oracle"
        )
        assert (code, err) == (0, "")
        assert "certified_g" not in payload
        assert payload["oracle"] == {"checked": False, "reason": "no claim to check"}

    def test_lift_rejects_failed_certificate(self, capsys, tmp_path):
        plane = tmp_path / "plane.json"
        A = parabola_set(3, 1)  # not a 1-difference set of (Z/3)^2
        plane.write_text(json.dumps(A.to_json()))
        code, _, err = run_cli(
            capsys, "construct", "lift", "--A", str(plane), "--s", "2", "--g", "1"
        )
        assert code == 1 and "certificate violation" in err

    def test_pipeline_frozen(self, capsys):
        code, payload, _ = run_json(
            capsys, "construct", "pipeline", "--k", "3", "--s", "2", "--p", "11",
            "--oracle",
        )
        assert code == 0
        assert payload["modulus"] == 242
        assert payload["size"] == 62
        assert payload["plane_g"] == 5 and payload["cyclic_g"] == 5
        assert payload["verified_cyclic_g"] == 9
        assert payload["recommended_k"] == 16
        assert payload["oracle"]["match"] is True

    def test_one_product_per_lift(self, capsys, monkeypatch, tmp_path):
        # the plane's box gives both counts: the pipeline's one product is the
        # plane's padded indicator, (p-1)(2p-1) + p cells, none over Z/30603
        lengths = []
        real = core_sets._convolve
        monkeypatch.setattr(core_sets, "_convolve", lambda x, **kw: lengths.append(len(x)) or real(x, **kw))
        code, payload, _ = run_json(capsys, "construct", "pipeline", "--k", "4", "--s", "3", "--p", "101")
        assert (code, payload["modulus"], lengths) == (0, 30603, [100 * 201 + 101])
        # construct lift --g: the 81-point plane of (Z/11)^2 multiplies, the
        # 31-point one bins its pairs, and neither lift to Z/242 multiplies
        for k, g, want in ((8, 52, [10 * 21 + 11]), (3, 5, [])):
            plane = tmp_path / "plane.json"
            plane.write_text(json.dumps(best_shift_union(11, k).subset.to_json()))
            lengths.clear()
            code, payload, _ = run_json(capsys, "construct", "lift", "--A", str(plane), "--s", "2", "--g", str(g))
            assert (code, payload["certified_g"], lengths) == (0, g, want)

    def test_blowup_spec_example(self, capsys, int_set_file, group_set_file):
        code, payload, _ = run_json(
            capsys, "construct", "blowup", "--A", int_set_file, "--N", "3",
            "--C", group_set_file, "--oracle",
        )
        assert code == 0
        assert payload["set"] == [1, 2, 4, 8, 9, 11, 22, 23, 25]
        assert payload["size"] == 9
        assert payload["g"] == 1 and payload["N"] == 21
        assert payload["oracle"]["match"] is True

    def test_blowup_rejects_non_certificate(self, capsys, tmp_path, group_set_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([0, 2]))
        code, _, err = run_cli(
            capsys, "construct", "blowup", "--A", str(bad), "--N", "3",
            "--C", group_set_file,
        )
        assert code == 1 and "certificate violation" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--set", "int", "--g", "1", "--N", "3"],
            ["construct", "parabola", "--p", "11", "--k", "3"],
            ["construct", "lift", "--A", "plane", "--s", "2", "--g", "5"],
            ["construct", "pipeline", "--k", "3", "--s", "2", "--p", "11"],
            ["construct", "blowup", "--A", "int", "--N", "3", "--C", "group"],
        ],
        ids=lambda argv: argv[1] if argv[0] == "construct" else argv[0],
    )
    def test_oracle_mismatch_exits_2(self, capsys, monkeypatch, tmp_path, int_set_file, group_set_file, argv):
        # a recount that disagrees with every claim: no count is negative
        monkeypatch.setattr(cli, "_oracle_achieved", lambda A, N, mode: -1)
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps(best_shift_union(11, 3, seed=0).subset.to_json()))
        files = {"int": int_set_file, "group": group_set_file, "plane": str(plane)}
        code, out, err = run_cli(capsys, *(files.get(arg, arg) for arg in argv), "--oracle", "--json")
        assert (code, err) == (2, "oracle mismatch: independent recount disagrees\n")
        assert json.loads(out)["oracle"] == {"checked": True, "achieved_g": -1, "match": False}

    def test_parabola_off_the_curve_is_an_oracle_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr("diffsets.constructions.parabola_set", lambda p, u: GroupSubset.of(GroupSpec((p, p)), [(1, 0)]))
        code, out, err = run_cli(
            capsys, "construct", "parabola", "--p", "5", "--u", "1", "--oracle", "--json"
        )
        assert (code, err) == (2, "oracle mismatch: independent recount disagrees\n")
        assert json.loads(out)["oracle"] == {"checked": True, "match": False}


class TestRandom:
    def test_group_draw_matches_library(self, capsys):
        code, payload, _ = run_json(
            capsys, "random", "group", "--factors", "100", "--g", "10", "--seed", "7"
        )
        assert code == 0
        expected = random_group_subset(GroupSpec((100,)), 10, 7)
        assert payload["size"] == expected.size
        assert payload["set"] == expected.to_json()

    def test_group_trials_structure(self, capsys):
        code, payload, _ = run_json(
            capsys, "random", "group", "--factors", "100", "--g", "10",
            "--seed", "7", "--trials", "5", "--delta", "3/10", "--epsilon", "1/10",
        )
        assert code == 0
        assert payload["trials"] == 5
        assert len(payload["per_trial"]) == 5
        assert len(payload["tail_checks"]) == 5
        assert payload["delta"] == "3/10"
        for row in payload["tail_checks"]:
            assert row["empirical"] <= row["bound"]

    def test_group_trials_probe_skips_trivial_factors(self, capsys):
        # the probe shift is the last unit vector of a factor above 1; the
        # trivial group has no nonzero shift to probe
        trials = ("--g", "1", "--trials", "2", "--delta", "1/2", "--epsilon", "1/2")
        code, payload, _ = run_json(capsys, "random", "group", "--factors", "5", "1", *trials)
        assert code == 0 and payload["tail_checks"][0]["shift"] == [1, 0]
        code, _, err = run_cli(capsys, "random", "group", "--factors", "1", *trials)
        assert code == 2 and "trivial group" in err

    @pytest.mark.parametrize(
        "trials", [(), ("--trials", "2", "--delta", "1/2", "--epsilon", "1/2")],
        ids=["draw", "trials"],
    )
    def test_group_too_large_is_refused_before_allocating(self, capsys, trials):
        # 10^10 elements would need one 80 GB array of uniforms per draw
        code, out, err = run_cli(
            capsys, "random", "group", "--factors", "100000", "100000", "--g", "1", *trials
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "too large" in err

    def test_trials_need_slacks(self, capsys):
        code, _, err = run_cli(
            capsys, "random", "group", "--factors", "100", "--g", "10",
            "--trials", "5",
        )
        assert code == 2 and "delta" in err

    def test_huge_delta_is_refused_before_the_trials(self, capsys, tmp_path):
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"support": [0, 1, 2], "coeffs": ["1/2"] * 3, "cbrt_n": None}))
        for model in (("group", "--factors", "10", "--g", "1"), ("sequence", "--probs", str(probs), "--N", "2")):
            code, out, err = run_cli(
                capsys, "random", *model, "--trials", "2", "--delta", "1e400", "--epsilon", "1/5"
            )
            assert (code, out) == (2, ""), model
            assert err == "error: delta too large: 3 * delta overflows a float\n", model

    def test_sequence_paths(self, capsys, tmp_path, int_set_file):
        fn = tmp_path / "fn.json"
        probs = tmp_path / "probs.json"
        code, _, _ = run_cli(
            capsys, "bridge", "set-to-fn", "--set", int_set_file, "--g", "1",
            "--N", "3", "--json", "--out", str(fn),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "bridge", "probs", "--fn", str(fn), "--N", "64",
            "--tau-hat", "2", "--json", "--out", str(probs),
        )
        assert code == 0
        code, payload, _ = run_json(
            capsys, "random", "sequence", "--probs", str(probs), "--seed", "11"
        )
        assert code == 0 and payload["size"] > 0
        code, payload, _ = run_json(
            capsys, "random", "sequence", "--probs", str(probs), "--seed", "11",
            "--N", "64", "--trials", "3", "--delta", "1/2", "--epsilon", "1/5",
        )
        assert code == 0
        assert payload["model"]["kind"] == "sequence-weighted"
        assert len(payload["per_trial"]) == 3

    def test_sequence_zero_entries_draw_nothing(self, capsys, tmp_path):
        # an explicit "0" coefficient is the same as an absent index: it is
        # dropped from the support and uses up no uniform
        with_zeros = {
            "support": [0, 1, 2, 3, 5, 8],
            "coeffs": ["1/2", "0", "1/3", "1/2", "0", "2/3"],
            "cbrt_scale_n": None,
        }
        without = {
            "support": [0, 2, 3, 8],
            "coeffs": ["1/2", "1/3", "1/2", "2/3"],
            "cbrt_scale_n": None,
        }
        sets = []
        for name, data in (("zeros", with_zeros), ("plain", without)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            code, payload, _ = run_json(
                capsys, "random", "sequence", "--probs", str(path), "--seed", "13"
            )
            assert code == 0
            sets.append(payload["set"])
        assert sets[0] == sets[1] == [2, 3, 8]

    def test_sequence_trials_with_a_zero_mean_probe_hold_their_bound(self, capsys, tmp_path):
        # no two indices are adjacent, so the probe at shift 1 has mean 0 and
        # every part is empty: each tail bounds itself by the total's bound,
        # 2 at mean 0, not by an empty sum of 0
        path = tmp_path / "probs.json"
        data = {"support": [3, 5, 7], "coeffs": ["1/2", "1/2", "1/2"], "cbrt_scale_n": None}
        path.write_text(json.dumps(data))
        code, payload, _ = run_json(
            capsys, "random", "sequence", "--probs", str(path), "--N", "4",
            "--trials", "4", "--delta", "1/2", "--epsilon", "1/5",
        )
        assert code == 0
        assert [row["probe_count"] for row in payload["per_trial"]] == [0] * 4
        for row in payload["tail_checks"]:
            assert (row["hits"], row["empirical"]) == (4, 1.0)
            assert (row["bound_raw"], row["bound"]) == (2.0, 1.0)

    @pytest.mark.parametrize("N", ["0", "-5"])
    def test_sequence_trials_refuse_a_shift_range_below_1(self, capsys, tmp_path, N):
        # each trial reads the count at shift 1, so [1, N] must hold it
        path = tmp_path / "probs.json"
        data = {"support": [0, 1, 2], "coeffs": ["1", "1", "1"], "cbrt_scale_n": None}
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "random", "sequence", "--probs", str(path), "--N", N,
            "--trials", "2", "--delta", "1/2", "--epsilon", "1/5",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "positive target_N" in err

    @pytest.mark.parametrize(
        "support, coeffs, message",
        [
            ([0, 1], ["1/2", "1/0"], "zero denominator"),
            ([0], ["1/2", "1/3"], "support indices"),
            ([0, 1], ["1/2"], "support indices"),
            ([0, 2, 0], ["1/2", "1/3", "1/4"], "repeats"),
        ],
        ids=["zero-denominator", "short-support", "short-coeffs", "repeated-index"],
    )
    def test_sequence_refuses_malformed_probs(self, capsys, tmp_path, support, coeffs, message):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps({"support": support, "coeffs": coeffs, "cbrt_scale_n": None}))
        code, out, err = run_cli(
            capsys, "random", "sequence", "--probs", str(path), "--seed", "1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "command, flag, data",
        [
            (("random", "sequence"), "--probs", {"coeffs": ["1/2"]}),
            (("random", "sequence"), "--probs", [1, 2]),
            (("bridge", "fn-check"), "--fn", {"values": ["1"]}),
            (("random", "sequence"), "--probs", {"support": 0, "coeffs": 0}),
            (("random", "sequence"), "--probs", {"support": [[1]], "coeffs": ["1"]}),
            (("bridge", "fn-check"), "--fn", {"breakpoints": 1, "values": 1}),
            (("bridge", "fn-check"), "--fn",
             {"breakpoints": ["0", "1"], "values": ["1"], "scale_sqrt": 1}),
            (("bridge", "fn-check"), "--fn",
             {"breakpoints": ["0", "1"], "values": ["1"], "scale_sqrt": {"num": 1}}),
            (("random", "sequence"), "--probs",
             {"support": [0], "coeffs": ["1/2"], "cbrt_scale_n": [1]}),
            (("random", "sequence"), "--probs",
             {"support": [1.9, "2"], "coeffs": ["1/2", "1/3"], "cbrt_scale_n": None}),
            (("random", "sequence"), "--probs", {"support": [True], "coeffs": ["1/2"]}),
            (("random", "sequence"), "--probs",
             {"support": [1, 2], "coeffs": ["1/8", "1/9"], "cbrt_scale_n": 8.7}),
            (("random", "sequence"), "--probs", {"support": [1], "coeffs": ["1/8"], "cbrt_scale_n": "8"}),
            (("bridge", "fn-check"), "--fn",
             {"breakpoints": ["0", "1"], "values": ["1"], "scale_sqrt": {"num": 2.5, "den": "3"}}),
            (("bridge", "fn-check"), "--fn",
             {"breakpoints": ["0", "1"], "values": ["1"], "scale_sqrt": {"num": True, "den": 3}}),
        ],
        ids=[
            "probs-without-support", "probs-not-an-object", "fn-without-breakpoints",
            "probs-not-lists", "probs-index-not-an-int", "fn-not-lists",
            "fn-scale-not-an-object", "fn-scale-without-den", "probs-cbrt-not-an-int",
            "probs-index-a-float-or-string", "probs-index-a-bool", "probs-cbrt-a-float",
            "probs-cbrt-a-string", "fn-scale-float-and-string", "fn-scale-a-bool",
        ],
    )
    def test_refuses_files_missing_keys(self, capsys, tmp_path, command, flag, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, *command, flag, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_sequence_refuses_sparse_span(self, capsys, tmp_path):
        # probabilities are stored densely over the index hull
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(
            {"support": [0, 10**7], "coeffs": ["1/2", "1/2"], "cbrt_scale_n": None}
        ))
        code, _, err = run_cli(
            capsys, "random", "sequence", "--probs", str(path), "--seed", "1"
        )
        assert code == 2 and "limit" in err


class TestBridge:
    def test_set_to_fn_frozen(self, capsys, int_set_file):
        code, payload, _ = run_json(
            capsys, "bridge", "set-to-fn", "--set", int_set_file, "--g", "1",
            "--N", "3",
        )
        assert code == 0
        assert payload == {
            "breakpoints": ["0", "2/3", "1", "4/3"],
            "values": ["1", "0", "1"],
            "scale_sqrt": {"num": 3, "den": 1},
        }

    def test_fn_check_pass_and_fail(self, capsys, tmp_path, int_set_file):
        fn = tmp_path / "fn.json"
        run_cli(
            capsys, "bridge", "set-to-fn", "--set", int_set_file, "--g", "1",
            "--N", "3", "--json", "--out", str(fn),
        )
        code, payload, _ = run_json(capsys, "bridge", "fn-check", "--fn", str(fn))
        assert code == 0 and payload["passes"] is True
        assert payload["min"] == "1" and payload["argmin"] == "1/3"
        # a bare unit block decays to zero overlap at shift 1
        unit = tmp_path / "unit.json"
        unit.write_text(
            json.dumps({"breakpoints": ["0", "1"], "values": ["1"], "scale_sqrt": None})
        )
        code, payload, _ = run_json(capsys, "bridge", "fn-check", "--fn", str(unit))
        assert code == 1 and payload["passes"] is False
        assert payload["min"] == "0" and payload["argmin"] == "1"

    def test_fn_check_refuses_too_many_breakpoints(self, capsys, tmp_path):
        # 1000 pieces on the 1/4096 grid: refused before any pair work
        fn = tmp_path / "big.json"
        fn.write_text(json.dumps({
            "breakpoints": [f"{k}/4096" for k in range(1001)],
            "values": [str(k % 2 + 1) for k in range(1000)],
            "scale_sqrt": None,
        }))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "bridge", "fn-check", "--fn", str(fn))
        assert code == 2 and "breakpoints" in err
        assert time.perf_counter() - start < 1.0

    def test_averages_and_probs(self, capsys, tmp_path, int_set_file):
        fn = tmp_path / "fn.json"
        run_cli(
            capsys, "bridge", "set-to-fn", "--set", int_set_file, "--g", "1",
            "--N", "3", "--json", "--out", str(fn),
        )
        code, payload, _ = run_json(
            capsys, "bridge", "averages", "--fn", str(fn), "--N", "64",
            "--tau-hat", "2",
        )
        assert code == 0
        assert payload["L"] == 16
        assert payload["conditions"]["sum_identity_ok"] is True
        assert payload["conditions"]["cond3_ok"] is True
        code, payload, _ = run_json(
            capsys, "bridge", "probs", "--fn", str(fn), "--N", "64",
            "--tau-hat", "2",
        )
        assert code == 0
        assert payload["cbrt_scale_n"] is None
        assert len(payload["support"]) == len(payload["coeffs"])

    def test_averages_and_probs_bytes_pinned(self, capsys, tmp_path):
        # payload digests of the perfect ruler {0,1,4,6} at N=2000, frozen
        # from the Fraction-per-entry implementation
        ruler, fn = tmp_path / "ruler.json", tmp_path / "fn.json"
        ruler.write_text(json.dumps([0, 1, 4, 6]))
        run_cli(
            capsys, "bridge", "set-to-fn", "--set", str(ruler), "--g", "1",
            "--N", "6", "--json", "--out", str(fn),
        )
        pinned = {
            "averages": "8de9bd3922c318d3a67474cf4a63fd1a8ceb731cca770b8dcb18071d86efcd1c",
            "probs": "873df3e4706df475e98b8e8a1c7745996efd8aa08065d9caaf3bcf59db2f3796",
        }
        for command, digest in pinned.items():
            code, out, _ = run_cli(
                capsys, "bridge", command, "--fn", str(fn), "--N", "2000",
                "--tau-hat", "1/2", "--stretch", "--json",
            )
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, command

    def test_monte_carlo_bytes_pinned(self, capsys, tmp_path):
        # payload digests frozen from the tuple-per-element group trial and
        # the Fraction-per-coefficient parse of probability files
        ruler, fn, probs = (tmp_path / n for n in ("ruler.json", "fn.json", "probs.json"))
        ruler.write_text(json.dumps([0, 1, 4, 6]))
        run_cli(
            capsys, "bridge", "set-to-fn", "--set", str(ruler), "--g", "1",
            "--N", "6", "--json", "--out", str(fn),
        )
        run_cli(
            capsys, "bridge", "probs", "--fn", str(fn), "--N", "2000",
            "--tau-hat", "1/2", "--stretch", "--json", "--out", str(probs),
        )
        group = ("random", "group", "--g", "4", "--seed", "7", "--json")
        trials = ("--trials", "3", "--delta", "3/10", "--epsilon", "1/10")
        sequence = ("random", "sequence", "--probs", str(probs), "--seed", "11", "--json")
        pinned = {
            (*group, "--factors", "60", *trials):
                "b4c1366f7a4b380221270e724047ca500d04b0f1a9b9ee6d4db29f57c204e3f4",
            (*group, "--factors", "6", "10", *trials):
                "d3298916805a10e9aff38d25f5206bf8d80a465132e41b9dfcac5ffd3e9b7dbe",
            # a bipartite probe (factor 2) and a factor of 2 mod 3, frozen
            # from the coset walk that built the partition element by element
            (*group, "--factors", "2", "2", "2", *trials):
                "da3f4f94f27c7489cd894fa814eda5f7e4c949503f6e95c7e906276e7fb5e1c8",
            (*group, "--factors", "11", *trials):
                "ad158b23ded84472d6c8d7cb4a269d5068b13e0793eb98adefab8986a7c7bbcd",
            (*group, "--factors", "6", "10"):
                "4956589e4c5068405fbc67fe2f29f498fa24ca4e94d2f1d6a49ddab76b38e3af",
            (*sequence, "--N", "64", "--trials", "3", "--delta", "1/2", "--epsilon", "1/5"):
                "6084e2dbbd4db6f417ce1acc4549a6236a0621de921314b8bcd7d790e1d03406",
            sequence: "197c8ef9ff4be3efa26d0021561779421c3542842f71dba232c009a83c5756c8",
        }
        for argv, digest in pinned.items():
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        # denominators of 58 and 69 bits, past 2^53 and 2^63, whose numerators
        # are held as Python ints; frozen from the list-of-ints sequences
        fn.write_text(json.dumps({"breakpoints": ["0", "1/999983", "1000003/1000000", "2"],
                                  "values": ["1", "7/5", "1"], "scale_sqrt": None}))
        bridge = ("bridge", "probs", "--fn", str(fn), "--N", "500", "--stretch", "--json")
        trials = ("--N", "500", "--trials", "3", "--delta", "1/2", "--epsilon", "1/5")
        sample = "38347be08186c44becb8594b405a3232d864440631ead9229455614395b51169"
        wide = {
            "499/1000": ("f7624d758f1b3c01dcaed626a6e65b7cae3eab081dd171c73604e808870bc983",
                         "9c58b3ccf574a381b0486b9fef5b4c86fc5cc02f0cab55f3aee35d337ae3498d"),
            "1000003/2000000": ("c33529c73965cf1326c994ab57d1c24ef5beb5cf93ec394626e86a9e3c0ab23f",
                                "0f7322878f9a1a9ab10ea4bf936457c745e2c8e83f8ea61fdf12c0c52376ef7b"),
        }
        for tau, (probs_digest, trials_digest) in wide.items():
            run_cli(capsys, *bridge, "--tau-hat", tau, "--out", str(probs))
            for argv, digest in (((*bridge, "--tau-hat", tau), probs_digest),
                                 ((*sequence, *trials), trials_digest), (sequence, sample)):
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (tau, argv)

    def test_fn_check_zero_denominator(self, capsys, tmp_path):
        path = tmp_path / "fn.json"
        bad_value = {"breakpoints": ["0", "1/2", "1"], "values": ["1", "1/0"], "scale_sqrt": None}
        bad_scale = dict(bad_value, values=["1", "1"], scale_sqrt={"num": 1, "den": 0})
        for data in (bad_value, bad_scale):
            path.write_text(json.dumps(data))
            code, _, err = run_cli(capsys, "bridge", "fn-check", "--fn", str(path))
            assert code == 2 and err.startswith("error:") and "zero denominator" in err

    def test_averages_refuse_oversized_span(self, capsys, tmp_path, int_set_file):
        # N = 10^12 would need about 2.3e12 window endpoints
        fn = tmp_path / "fn.json"
        run_cli(
            capsys, "bridge", "set-to-fn", "--set", int_set_file, "--g", "1",
            "--N", "3", "--json", "--out", str(fn),
        )
        for command in ("averages", "probs"):
            start = time.perf_counter()
            code, _, err = run_cli(
                capsys, "bridge", command, "--fn", str(fn), "--N", str(10**12),
                "--tau-hat", "1/2", "--stretch",
            )
            assert code == 2 and "limit" in err
            assert time.perf_counter() - start < 1.0

    def test_torus(self, capsys, group_set_file):
        code, payload, _ = run_json(
            capsys, "bridge", "torus", "--set", group_set_file, "--g", "1"
        )
        assert code == 0
        assert payload["min"] == "1"
        assert payload["l1_norm"] == {"coeff": "3/7", "radicand": "7", "float": 1.133893}

    def test_torus_rejects_int_set(self, capsys, int_set_file):
        code, _, err = run_cli(
            capsys, "bridge", "torus", "--set", int_set_file, "--g", "1"
        )
        assert code == 2 and "group-subset" in err


class TestSolveAndReport:
    def test_solve_eta_spec_example(self, capsys):
        code, payload, _ = run_json(capsys, "solve", "eta", "--g", "1", "--N", "3")
        assert code == 0
        assert payload["value"] == 3
        assert payload["witness"] == [0, 1, 3]
        assert payload["exhaustive"] is True

    def test_solve_eta_threefold_cover(self, capsys):
        # four consecutive integers cover shift 1 three times
        code, payload, _ = run_json(capsys, "solve", "eta", "--g", "3", "--N", "1")
        assert code == 0
        assert payload["value"] == 4
        assert payload["witness"] == [0, 1, 2, 3]
        assert payload["exhaustive"] is True

    def test_solve_all_quantities(self, capsys):
        code, payload, _ = run_json(capsys, "solve", "gamma", "--g", "1", "--factors", "7")
        assert code == 0 and payload["value"] == 3
        code, payload, _ = run_json(capsys, "solve", "beta", "--g", "2", "--N", "5")
        assert code == 0 and payload["value"] == 3
        code, payload, _ = run_json(capsys, "solve", "alpha", "--g", "2", "--factors", "6")
        assert code == 0 and payload["value"] == 3

    def test_solve_budget_partial(self, capsys):
        code, payload, _ = run_json(
            capsys, "solve", "eta", "--g", "1", "--N", "12", "--budget", "10"
        )
        assert code == 0
        assert payload["exhaustive"] is False

    def test_solve_refuses_negative_budget(self, capsys):
        for quantity in ("eta", "beta"):
            code, out, err = run_cli(capsys, "solve", quantity, "--g", "1", "--N", "5", "--budget", "-5")
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "node budget" in err
        code, payload, _ = run_json(capsys, "solve", "eta", "--g", "1", "--N", "5", "--budget", "0")
        assert code == 0 and (payload["nodes"], payload["exhaustive"]) == (1, False)

    def test_group_over_the_solve_limit_is_refused(self):
        # both orders are over the 250,000-element limit, which is checked
        # before the slot layout is built
        for quantity, factors in (("gamma", ("1000", "1000")), ("alpha", ("1000000",))):
            argv = ["--g", "1", "--factors", *factors, "--budget", "1000"]
            code, out, err = run_in_2gb("solve", quantity, *argv)
            assert (code, out) == (2, ""), err
            assert err.startswith("error:") and "too large" in err and "250000" in err

    def test_group_over_the_slot_limit_is_refused(self):
        # (Z/2)^17 is within the order limit, but its layout needs 2^17 * 2^17
        # slots; with a |G|-long table row per placed element it outgrew 2 GB
        for quantity in ("gamma", "alpha"):
            argv = ["--g", "1", "--factors", *["2"] * 17, "--budget", "1000"]
            code, out, err = run_in_2gb("solve", quantity, *argv)
            assert (code, out) == (2, ""), err
            assert err.startswith("error:") and "17179869184 slots" in err and "1000000" in err

    def test_largest_rank_two_group_solves(self):
        # Z/500 x Z/500 fills the slot limit exactly
        for quantity, g in (("gamma", 1), ("alpha", 2)):
            argv = ["--g", str(g), "--factors", "500", "500", "--budget", "1000", "--json"]
            code, out, err = run_in_2gb("solve", quantity, *argv)
            assert code == 0, err
            assert (json.loads(out)["exhaustive"], json.loads(out)["nodes"]) == (False, 1001)

    def test_solve_parameter_mixups(self, capsys):
        code, _, err = run_cli(capsys, "solve", "eta", "--g", "1")
        assert code == 2 and "--N" in err
        code, _, err = run_cli(capsys, "solve", "gamma", "--g", "1")
        assert code == 2 and "--factors" in err
        for flag in (["--window", "6"], ["--no-confirm"]):
            code, _, _ = run_cli(capsys, "solve", "eta", "--g", "1", "--N", "3", *flag)
            assert code == 2

    def test_report_ratios_csv(self, capsys, monkeypatch, tmp_path):
        from diffsets import solver

        calls, real_rows = [], solver.ratio_rows
        monkeypatch.setattr(solver, "ratio_rows", lambda results: calls.append(1) or real_rows(results))
        paths = []
        for i, argv in enumerate(
            (
                ("solve", "eta", "--g", "1", "--N", "1"),
                ("solve", "eta", "--g", "1", "--N", "3"),
                ("solve", "gamma", "--g", "1", "--factors", "7"),
            )
        ):
            out = tmp_path / f"r{i}.json"
            assert dispatch([*argv, "--json", "--out", str(out)]) == 0
            paths.append(str(out))
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "report", "ratios", "--results", *paths)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "quantity,g,param,value,ratio,flag"
        assert lines[1] == "eta,1,1,2,2.000000,ok"
        assert lines[2] == "eta,1,3,3,1.732051,ok"
        assert lines[3] == "gamma,1,7,3,1.133893,ok"
        assert len(calls) == 1  # the table prints the rows the exit code was read from

    def test_report_flags_impossible_row(self, capsys, tmp_path):
        fake = tmp_path / "fake.json"
        fake.write_text(
            json.dumps(
                {"quantity": "eta", "g": 1, "N": 100, "value": 10, "exhaustive": True}
            )
        )
        code, out, _ = run_cli(capsys, "report", "ratios", "--results", str(fake))
        assert code == 1
        assert "eta,1,100,10,1.000000,FATAL" in out
        code, payload, _ = run_json(
            capsys, "report", "ratios", "--results", str(fake)
        )
        assert code == 1 and payload["rows"][0]["flag"] == "FATAL"

    @pytest.mark.parametrize(
        "result",
        [
            {"quantity": "eta", "g": 1, "N": 18, "value": 7, "witness": [0, 1]},
            {"quantity": "eta", "g": 1, "N": 3, "value": 4, "witness": [0, 1, 3]},
            {"quantity": "beta", "g": 2, "N": 5, "value": 3, "witness": [1, 2, 3]},
            {"quantity": "gamma", "g": 1, "group": [7], "value": 1, "witness": [[0]]},
            {"quantity": "alpha", "g": 1, "group": [7], "value": 2, "witness": [[0], [1]]},
        ],
        ids=["eta-too-small", "eta-size-mismatch", "beta-not-sidon", "gamma-not-cover", "alpha-not-sidon"],
    )
    def test_report_checks_the_witness(self, capsys, tmp_path, result):
        # a witness present must have value elements and pass its certificate
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**result, "exhaustive": True}))
        code, out, err = run_cli(capsys, "report", "ratios", "--results", str(bad))
        assert (code, out) == (2, "") and err.startswith("error: ") and "bad.json: the witness" in err

    def test_report_rejects_malformed_result(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"quantity": "eta", "g": 1, "value": 3}))
        code, _, err = run_cli(capsys, "report", "ratios", "--results", str(bad))
        assert code == 2 and "one of N or group" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"g": 0}, "g must be a positive integer"),
            ({"g": "1"}, "g must be a positive integer"),
            ({"g": True}, "g must be a positive integer"),
            ({"value": -3}, "value must be a positive integer"),
            ({"N": 2.5}, "N must be a positive integer"),
            ({"quantity": "zeta"}, "quantity 'zeta' is not eta or beta"),
            ({"quantity": "gamma"}, "quantity 'gamma' is not eta or beta with N"),
            ({"N": None}, "N must be a positive integer"),
            ({"witness": 7}, "witness a list or null"),
            ({"quantity": "gamma", "N": None, "group": 5}, "group must be a list"),
        ],
        ids=[
            "g-zero", "g-string", "g-bool", "value-negative", "N-float", "unknown-quantity",
            "gamma-with-N", "N-null", "witness-int", "group-int",
        ],
    )
    def test_report_refuses_malformed_fields(self, capsys, tmp_path, change, message):
        good = {"quantity": "eta", "g": 1, "N": 3, "value": 3, "witness": [0, 1, 3]}
        data = {**good, **change}
        if data.get("N") is None and "group" in data:
            del data["N"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "report", "ratios", "--results", str(bad))
        assert (code, out) == (2, "") and err.startswith("error: ") and message in err


class TestBounds:
    def test_interval(self, capsys):
        code, payload, _ = run_json(capsys, "bounds", "--g", "2", "--N", "10")
        assert code == 0
        assert payload["ledger"]["tau_lower"] == "39/25"
        assert payload["trivial"]["min_cover_lower"] == 7
        assert payload["trivial"]["max_packing_upper"] == 6

    def test_group(self, capsys):
        code, payload, _ = run_json(capsys, "bounds", "--g", "1", "--factors", "7")
        assert code == 0
        assert payload["trivial"]["sharper_cover_lower"] == 3

    def test_g_past_the_group_order_warns(self, capsys):
        code, payload, _ = run_json(capsys, "bounds", "--g", "3", "--factors", "2")
        assert code == 0
        assert payload["trivial"]["warning"] == "g exceeds |G|; no subset attains g everywhere"
        code, payload, _ = run_json(capsys, "bounds", "--g", "2", "--factors", "2")
        assert code == 0 and "warning" not in payload["trivial"]

    def test_ledger_only(self, capsys):
        code, payload, _ = run_json(capsys, "bounds")
        assert code == 0 and "trivial" not in payload

    def test_rejects_partial_arguments(self, capsys):
        assert run_cli(capsys, "bounds", "--g", "2") == (2, "", "error: --g needs --N or --factors\n")
        assert run_cli(capsys, "bounds", "--N", "10") == (2, "", "error: --N/--factors need --g\n")


def _random_json(rng, depth=0):
    """A payload json.dumps accepts: nested dicts and lists, empty ones,
    big and negative ints, special floats, awkward strings."""
    scalars = [
        None, True, False, 0, -7, 2**64 + 1, -(2**70), 0.1, -0.0, 1e300, float("nan"),
        float("inf"), float("-inf"), "", 'say "hi"', "back\\slash", "\x00\x1f\n\t\u2028",
        "caf\u00e9 \u6f22 \U0001f642", "1/3",
    ]
    r = rng.random()
    if depth > 3 or r < 0.35:
        return rng.choice(scalars)
    if r < 0.55:
        return [rng.choice(scalars) for _ in range(rng.randrange(0, 8))]
    if r < 0.75:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    keys = ["a", "B", "z\u00e9", 'k"q', "", "10", "9"]
    size = rng.randrange(0, 5)
    return {rng.choice(keys) + str(i): _random_json(rng, depth + 1) for i in range(size)}


class TestEmitter:
    """Every JSON payload is json.dumps(sort_keys=True, indent=2) + newline."""

    @staticmethod
    def dumps(payload):
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def emit(self, payload):
        buf = io.StringIO()
        cli._emit(payload, buf)
        return buf.getvalue()

    def test_generated_payloads(self):
        rng = random.Random(2024)
        for _ in range(2000):
            payload = _random_json(rng)
            if isinstance(payload, str):  # a str body is text, written as it is
                payload = [payload]
            assert self.emit(payload) == self.dumps(payload), payload

    def test_edge_payloads(self):
        payloads = [
            {}, [], [[]], [{}], {"a": {}, "b": []}, ("x", (1, 2)), [[1, 2], [3]],
            {"rows": [{"n": 1, "v": "1/2"}, {"n": 2, "v": None}]},
            {3: "int keys", 1: [1.5]}, {None: 0}, {True: 1}, {2.5: "float key"},
            {"coeffs": [f"{i}/7" for i in range(2500)], "support": tuple(range(2049))},
            [[1, None, True], (2.5, -3)], [[1], []], [["]"], [1]], [[[1]], [2]], [[1], {"a": 1}],
            "a bare string is written as it is\n",
        ]
        for payload in payloads[:-1]:
            assert self.emit(payload) == self.dumps(payload), payload
        assert self.emit(payloads[-1]) == payloads[-1]

    def test_long_lists_are_written_in_small_pieces(self):
        payload = {"coeffs": [f"{i}/7" for i in range(10_000)], "support": list(range(10_000))}
        pieces = []
        cli._write_json(payload, pieces.append)
        assert "".join(pieces) + "\n" == self.dumps(payload)
        assert max(map(len, pieces)) < 40_000

    def test_rows_of_numbers_take_one_encoder_call_per_piece(self):
        payload = {"elements": [[i, -i, i / 4] for i in range(5_000)]}
        pieces = []
        cli._write_json(payload, pieces.append)
        assert "".join(pieces) + "\n" == self.dumps(payload)
        assert len(pieces) < 12

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        probs = tmp_path / "probs.json"
        data = {"support": [0, 1, 5], "coeffs": ["1/2", "1", "2/3"], "cbrt_scale_n": None}
        probs.write_text(json.dumps(data))
        out = tmp_path / "seq.json"
        argv = ["random", "sequence", "--probs", str(probs), "--seed", "4", "--json"]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0 and dispatch(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == stdout.encode()
        assert stdout == self.dumps(json.loads(stdout))

    def test_certificate_verdict_on_stderr(self, capsys, tmp_path):
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps(parabola_set(3, 1).to_json()))
        code, out, err = run_cli(
            capsys, "construct", "lift", "--A", str(plane), "--s", "2", "--g", "1"
        )
        first, verdict = err.split("\n", 1)
        assert code == 1 and out == "" and first.startswith("certificate violation")
        assert verdict == self.dumps({"achieved_g": 0, "passed": False, "witness": [0, 1]})


def _sparse_lift(A, s):
    """Stands in for lift_to_cyclic: {0, 1, 3} in the lift's group Z/(p^2 s)."""
    return GroupSubset.of(GroupSpec((A.group.order * s,)), [(0,), (1,), (3,)])


_C7 = {"invariant_factors": [7], "elements": [[1], [2], [4]]}
_PLANE = {"invariant_factors": [3, 3], "elements": [[x, y] for x in range(3) for y in range(3)]}


class TestCertificateViolations:
    """Every failed difference claim, whatever command makes it, gets one
    message form and its verdict (expected values counted by hand).  A
    list or dict in argv is written to a file whose path takes its place."""

    @pytest.mark.parametrize(
        "argv, patch, message, verdict",
        [
            (
                # counts 2, 1, 0, 0, 0 at shifts 1..5: the first failure is
                # shift 1, above the least count
                ["bridge", "set-to-fn", "--set", [0, 1, 2], "--g", "3", "--N", "5"],
                None,
                "A is not a 3-difference set for [5]: shift 1 has count 2",
                {"passed": False, "achieved_g": 0, "witness": 1},
            ),
            (
                ["bridge", "torus", "--g", "1", "--set", {"invariant_factors": [6], "elements": [[0], [1]]}],
                None,
                "A is not a 1-difference set for Z/6: shift [2] has count 0",
                {"passed": False, "achieved_g": 0, "witness": [2]},
            ),
            (
                ["construct", "blowup", "--A", [0, 2], "--N", "3", "--C", _C7],
                None,
                "A is not a 1-difference set for [3]: shift 1 has count 0",
                {"passed": False, "achieved_g": 0, "witness": 1},
            ),
            (
                ["construct", "blowup", "--A", [0, 1, 3], "--N", "3", "--C", _C7, "--g2", "2"],
                None,
                "C is not a 2-difference set for Z/7: shift [1] has count 1",
                {"passed": False, "achieved_g": 1, "witness": [1]},
            ),
            (
                # the union certifies 5 = plane_g * (s - 1); {0, 1, 3} in
                # Z/242 fails first at shift 0, counted 3 times
                ["construct", "pipeline", "--k", "3", "--s", "2", "--p", "11"],
                ("diffsets.constructions.lift_to_cyclic", _sparse_lift),
                "lift is not a 5-difference set for Z/242: shift [0] has count 3",
                {"passed": False, "achieved_g": 0, "witness": [0]},
            ),
            (
                ["construct", "lift", "--s", "2", "--g", "1", "--A", parabola_set(3, 1).to_json()],
                None,
                "input is not a 1-difference set for Z/3 x Z/3: shift [0, 1] has count 0",
                {"passed": False, "achieved_g": 0, "witness": [0, 1]},
            ),
            (
                # the whole of (Z/3)^2 passes; its stand-in lift {0, 1, 3} in
                # Z/18 misses shift 4
                ["construct", "lift", "--s", "2", "--g", "1", "--A", _PLANE],
                ("diffsets.constructions.lift_to_cyclic", _sparse_lift),
                "lift is not a 1-difference set for Z/18: shift [4] has count 0",
                {"passed": False, "achieved_g": 0, "witness": [4]},
            ),
        ],
        ids=["set-to-fn", "torus", "blowup-A", "blowup-C", "pipeline-lift", "lift-input", "lift-output"],
    )
    def test_one_message_and_the_verdict(self, capsys, monkeypatch, tmp_path, argv, patch, message, verdict):
        if patch is not None:
            monkeypatch.setattr(*patch)
        files = {i: tmp_path / f"{i}.json" for i, arg in enumerate(argv) if not isinstance(arg, str)}
        for i, path in files.items():
            path.write_text(json.dumps(argv[i]))
        code, out, err = run_cli(capsys, *(str(files.get(i, arg)) for i, arg in enumerate(argv)))
        first, rest = err.split("\n", 1)
        assert (code, out) == (1, "")
        assert first == f"certificate violation: {message}"
        assert json.loads(rest) == verdict


# One valid command line per leaf command, then the edge forms: help at each
# level, "--", "--g=1", an abbreviated option, a missing --g, a bad type, an
# unknown flag, options a command does not take, required and exclusive
# option groups, trial-only options without --trials (refused by the
# handler, not the parser), extra positionals and lines that name no leaf
# command.
PARSE_CASES = [
    ["verify", "--set", "a.json", "--g", "1", "--N", "3", "--oracle", "--json"],
    ["profile", "--set", "a.json", "--kind", "sum", "--lo", "0", "--hi", "6"],
    ["construct", "parabola", "--p", "5", "--u", "1", "--oracle"],
    ["construct", "lift", "--A", "p.json", "--s", "2", "--g", "1", "--out", "x.json"],
    ["construct", "pipeline", "--k", "2", "--s", "2", "--p", "5", "--manifest", "m.json"],
    ["construct", "blowup", "--A", "a.json", "--N", "3", "--C", "c.json", "--g1", "1", "--g2", "1"],
    ["random", "group", "--factors", "10", "10", "--g", "1", "--trials", "2", "--delta", "1/2", "--epsilon", "0.1"],
    ["random", "sequence", "--probs", "p.json", "--N", "5", "--trials", "2", "--delta", "1/2", "--epsilon", "1/5"],
    ["bridge", "set-to-fn", "--set", "a.json", "--g", "1", "--N", "3"],
    ["bridge", "fn-check", "--fn", "f.json", "--lo", "1/2", "--hi", "1"],
    ["bridge", "averages", "--fn", "f.json", "--N", "5", "--tau-hat", "1/4", "--stretch"],
    ["bridge", "probs", "--fn", "f.json", "--N", "5", "--tau-hat", "1/4"],
    ["bridge", "torus", "--set", "c.json", "--g", "1"],
    ["solve", "eta", "--g", "1", "--N", "3", "--budget", "100", "--no-pin"],
    ["solve", "gamma", "--g", "1", "--factors", "3", "3"],
    ["solve", "beta", "--g", "2", "--N", "5", "--json"],
    ["solve", "alpha", "--g", "1", "--factors", "7"],
    ["report", "ratios", "--results", "a.json", "b.json", "--json"],
    ["bounds", "--g", "2", "--N", "5"],
    ["bounds"],
    ["-h"],
    ["solve", "-h"],
    ["solve", "eta", "-h"],
    ["verify", "--help"],
    ["bridge", "averages", "-h"],
    ["--", "verify", "--set", "a.json", "--g", "1"],
    ["verify", "--set", "a.json", "--g", "1", "--"],
    ["verify", "--", "--set", "a.json", "--g", "1"],
    ["solve", "--", "eta", "--g", "1"],
    ["report", "ratios", "--results", "a.json", "--", "b.json"],
    ["solve", "eta", "--g=1", "--N=3"],
    ["bridge", "averages", "--fn", "f.json", "--N", "5", "--tau", "1/4"],
    ["solve", "eta"],
    ["solve", "eta", "--g", "x"],
    ["random", "group", "--factors", "10", "--g", "1", "--delta", "1/0"],
    ["verify", "--set", "a.json", "--g", "1", "--N", "3", "--seed", "1"],
    ["solve", "gamma", "--g", "1", "--factors", "6", "--N", "5"],
    ["solve", "eta", "--g", "1", "--N", "3", "--factors", "5"],
    ["solve", "beta", "--g", "1", "--N", "3", "--no-pin"],
    ["solve", "alpha", "--g", "1"],
    ["construct", "blowup", "--A", "a.json", "--N", "3", "--C", "c.json", "--q", "7"],
    ["construct", "parabola", "--p", "5"],
    ["construct", "parabola", "--p", "5", "--u", "1", "--k", "2"],
    ["bounds", "--g", "1", "--N", "3", "--factors", "4"],
    ["random", "group", "--factors", "10", "--g", "1", "--delta", "1/2"],
    ["random", "sequence", "--probs", "p.json", "--N", "64"],
    ["verify", "--unknown-flag"],
    ["verify", "--set", "a.json", "--g", "1", "extra"],
    ["solve", "eta", "extra", "--g", "1"],
    ["bounds", "solve", "eta"],
    [],
    ["nonsense"],
    ["solve"],
    ["solve", "nonsense", "--g", "1"],
]


class TestPlumbing:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 2
        assert run_cli(capsys, "solve", "eta")[0] == 2  # missing --g
        assert run_cli(capsys, "verify", "--unknown-flag")[0] == 2

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_one_parse_matches_the_full_descent(self, capsys, argv):
        # the full argparse descent is the oracle for the leaf-parser path
        def outcome(parse):
            try:
                result = vars(parse(list(argv))), None
            except SystemExit as exc:
                result = None, exc.code
            captured = capsys.readouterr()
            return (*result, captured.out, captured.err)

        assert outcome(cli._parse) == outcome(cli._build_parser().parse_args)

    def test_valid_lines_never_reach_the_full_parser(self, capsys, monkeypatch):
        # every line the full parser accepts is one its command's own parser takes
        full = cli._build_parser()
        valid = []
        for argv in PARSE_CASES:
            try:
                valid.append((argv, vars(full.parse_args(list(argv)))))
            except SystemExit:
                pass
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("the full parser ran")

        monkeypatch.setattr(full, "parse_args", refuse)
        # all 19 leaf commands are among them
        assert len({(ns["command"], ns.get("what"), ns.get("quantity")) for _, ns in valid}) == 19
        for argv, namespace in valid:
            assert vars(cli._parse(list(argv))) == namespace, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["random", "group", "--factors", "10", "--g", "1", "--trials", "2", "--delta", "1/0", "--epsilon", "1/5"],
            ["random", "group", "--factors", "10", "--g", "1", "--trials", "2", "--delta", "1/5", "--epsilon", "1/0"],
            ["random", "sequence", "--probs", "p.json", "--trials", "2", "--delta", "1/0", "--epsilon", "1/5"],
            ["random", "sequence", "--probs", "p.json", "--trials", "2", "--delta", "1/5", "--epsilon", "1/0"],
            ["bridge", "fn-check", "--fn", "f.json", "--lo", "1/0"],
            ["bridge", "fn-check", "--fn", "f.json", "--hi", "1/0"],
            ["bridge", "averages", "--fn", "f.json", "--N", "5", "--tau-hat", "1/0"],
            ["bridge", "probs", "--fn", "f.json", "--N", "5", "--tau-hat", "1/0"],
        ],
        ids=lambda argv: f"{argv[1]} {argv[argv.index('1/0') - 1]}",
    )
    def test_zero_denominator_options_are_usage_errors(self, capsys, argv):
        option = argv[argv.index("1/0") - 1]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid parse_fraction value: '1/0'\n")

    def test_out_file_and_byte_stability(self, capsys, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        argv = ["random", "group", "--factors", "100", "--g", "10", "--seed", "3",
                "--trials", "4", "--delta", "1/2", "--epsilon", "1/5", "--json"]
        assert dispatch(argv + ["--out", str(a)]) == 0
        assert dispatch(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out(self, capsys, int_set_file, tmp_path):
        target = tmp_path / "no-such-dir" / "x.json"
        code, _, err = run_cli(
            capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3",
            "--out", str(target),
        )
        assert code == 2 and "error" in err

    def test_manifest(self, capsys, int_set_file, tmp_path):
        manifest = tmp_path / "m.json"
        out = tmp_path / "v.json"
        code, _, _ = run_cli(
            capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3",
            "--json", "--out", str(out), "--manifest", str(manifest),
        )
        assert code == 0
        data = json.loads(manifest.read_text())
        assert data["seed"] == 0
        assert data["outputs"] == [str(out)]
        assert data["version"]
        with open(int_set_file, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert data["input_digests"] == {int_set_file: digest}
        assert "wall_clock_seconds" in data and "cmdline" in data

    @pytest.mark.parametrize("old", [b"#", b"#" * 100_000], ids=["over-shorter", "over-longer"])
    def test_out_and_manifest_overwrite_to_the_new_length(self, capsys, int_set_file, tmp_path, old):
        # files are written over in place, so a longer old file must be cut
        out, manifest = tmp_path / "v.json", tmp_path / "m.json"
        out.write_bytes(old)
        manifest.write_bytes(old)
        argv = ["verify", "--set", int_set_file, "--g", "1", "--N", "3", "--json"]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(out), "--manifest", str(manifest))[0] == 0
        assert out.read_text() == expected
        # the manifest's wall clock varies; its own canonical form is exact
        text = manifest.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_out_to_dev_null(self, capsys, int_set_file):
        code, out, err = run_cli(
            capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3",
            "--out", os.devnull, "--manifest", os.devnull,
        )
        assert (code, out, err) == (0, "", "")

    def test_out_hard_link_sees_the_new_bytes(self, capsys, int_set_file, tmp_path):
        out, link = tmp_path / "v.json", tmp_path / "link.json"
        out.write_bytes(b"#" * 10_000)
        os.link(out, link)
        argv = ["verify", "--set", int_set_file, "--g", "1", "--N", "3", "--json"]
        expected = run_cli(capsys, *argv)[1]
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        assert link.read_text() == out.read_text() == expected

    def test_new_out_file_mode_follows_the_umask(self, capsys, int_set_file, tmp_path):
        reference, out = tmp_path / "ref", tmp_path / "v.json"
        with open(reference, "w"):
            pass
        argv = ["verify", "--set", int_set_file, "--g", "1", "--N", "3", "--out", str(out)]
        assert run_cli(capsys, *argv)[0] == 0
        assert out.stat().st_mode == reference.stat().st_mode

    def test_writer_never_truncates_on_open(self, capsys, monkeypatch, int_set_file, tmp_path):
        # O_TRUNC on an existing ext4 file starts writeback at close
        flags, real_open = [], os.open

        def spy(path, flag, *rest, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *rest, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        out, manifest = tmp_path / "v.json", tmp_path / "m.json"
        for _ in range(2):  # new files, then existing ones
            code, _, _ = run_cli(
                capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3",
                "--out", str(out), "--manifest", str(manifest),
            )
            assert code == 0
        assert len(flags) == 4
        assert not any(flag & os.O_TRUNC for flag in flags)

    def test_large_payload_streams_in_batches_and_cuts_to_length(self, monkeypatch, tmp_path):
        # about 5 MB of JSON: several batches of 1 MiB, none holding the whole text
        payload = {"coeffs": [f"{i}/7" for i in range(400_000)], "rows": [[i, -i] for i in range(20_000)]}
        expected = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        out = tmp_path / "big.json"
        out.write_bytes(b"#" * (len(expected) + 100_000))
        sizes, real_write = [], os.write

        def spy(fd, data):
            sizes.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", spy)
        cli._write(payload, str(out))
        assert out.read_bytes() == expected
        assert len(sizes) >= 4 and sum(sizes) == len(expected)
        assert max(sizes) < cli._BATCH + 100_000

    def test_a_small_report_is_one_write(self, capsys, monkeypatch, int_set_file, tmp_path):
        calls, real_write = [], os.write

        def spy(fd, data):
            calls.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", spy)
        out, manifest = tmp_path / "v.json", tmp_path / "m.json"
        argv = ["verify", "--set", int_set_file, "--g", "1", "--N", "3", "--json"]
        assert run_cli(capsys, *argv, "--out", str(out), "--manifest", str(manifest))[0] == 0
        assert calls == [out.read_bytes(), manifest.read_bytes()]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_out_to_a_full_device_closes_its_descriptor(self, capsys, int_set_file):
        def descriptors():
            return sorted(os.listdir("/proc/self/fd"))

        before = descriptors()
        code, out, err = run_cli(
            capsys, "verify", "--set", int_set_file, "--g", "1", "--N", "3", "--out", "/dev/full"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert descriptors() == before

    def test_reused_parser_matches_fresh_processes(self, capsys, int_set_file, group_set_file):
        # one cached parser serves every dispatch; a usage error in between
        # must not leak into the commands after it
        commands = [
            ["verify", "--set", int_set_file, "--g", "1", "--N", "3", "--json"],
            ["verify", "--unknown-flag"],
            ["bounds", "--g", "2", "--N", "5", "--json"],
            ["verify", "--set", group_set_file, "--g", "1"],
            ["verify", "--set", int_set_file, "--g", "2", "--N", "3"],
            ["solve", "eta", "--g", "x"],
            ["bounds", "--g", "2", "--N", "5", "--"],
            ["--", "bounds"],
            ["bounds", "--g", "1", "--N", "3"],
        ]
        in_process = [run_cli(capsys, *argv) for argv in commands]
        assert cli._build_parser() is cli._build_parser()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        script = "import sys; from diffsets.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
        for argv, (code, out, err) in zip(commands, in_process):
            fresh = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, env=env
            )
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
                code, out.encode(), err.encode()
            ), argv
        assert [c for c, _, _ in in_process] == [0, 2, 0, 0, 1, 2, 2, 2, 0]

    def test_import_loads_no_thread_pool_or_logging(self):
        # trials run serially, so start-up imports neither module
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        script = (
            "import sys, diffsets.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        )
        fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True)
        assert (fresh.returncode, fresh.stdout) == (0, "[]\n"), fresh.stderr

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ([], []),
            (["verify", "--set", "SET", "--g", "1", "--N", "3"], []),
            (["solve", "eta", "--g", "1", "--N", "6"], ["solver"]),
            (["construct", "pipeline", "--k", "3", "--s", "2", "--p", "11"], ["constructions"]),
            (["bridge", "set-to-fn", "--set", "SET", "--g", "1", "--N", "3"], ["bridge"]),
        ],
        ids=["import", "verify", "solve-eta", "construct-pipeline", "bridge-set-to-fn"],
    )
    def test_a_command_loads_only_the_modules_it_runs(self, int_set_file, argv, loaded):
        # in a fresh process: handlers import solver, bridge and constructions
        # on first use, so importing the CLI loads none of them
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        script = (
            "import sys, diffsets.cli as cli\n"
            "code = cli.dispatch(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(sorted(m for m in ('bridge', 'constructions', 'solver') if 'diffsets.' + m in sys.modules))\n"
            "sys.exit(code)\n"
        )
        argv = [int_set_file if arg == "SET" else arg for arg in argv]
        fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env, text=True)
        assert (fresh.returncode, fresh.stdout.splitlines()[-1]) == (0, str(loaded)), fresh.stderr

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("words", list(cli._commands()[1]), ids=" ".join)
    def test_each_leaf_takes_only_the_options_it_reads(self, capsys, words):
        assert run_cli(capsys, *words, "--help")[0] == 0
        parser = cli._commands()[1][words][0]
        options = {s for action in parser._actions for s in action.option_strings}
        seeded = {("construct", "parabola"), ("construct", "pipeline"), ("random", "group"), ("random", "sequence")}
        assert ("--seed" in options) == (words in seeded)
        assert "--q" not in options
        if words[0] == "solve":
            assert ("--N" in options) == (words[1] in ("eta", "beta"))
            assert ("--factors" in options) == (words[1] in ("gamma", "alpha"))
            assert ("--no-pin" in options) == (words[1] != "beta")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--set", "SET", "--g", "1", "--N", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["solve", "gamma", "--g", "1", "--factors", "6", "--N", "5"], "unrecognized arguments: --N 5"),
            (["solve", "eta", "--g", "1", "--N", "3", "--factors", "5"], "unrecognized arguments: --factors 5"),
            (["solve", "beta", "--g", "1", "--N", "3", "--no-pin"], "unrecognized arguments: --no-pin"),
            (["construct", "blowup", "--A", "SET", "--N", "3", "--C", "GROUP", "--q", "7"],
             "unrecognized arguments: --q 7"),
            (["random", "group", "--factors", "10", "--g", "1", "--delta", "1/2"],
             "error: --delta: only read with --trials"),
            (["random", "sequence", "--probs", "missing.json", "--N", "64"], "error: --N: only read with --trials"),
            (["random", "sequence", "--probs", "missing.json", "--N", "64", "--epsilon", "1/5", "--seed", "2"],
             "error: --epsilon, --N: only read with --trials"),
        ],
        ids=["verify --seed", "solve gamma --N", "solve eta --factors", "solve beta --no-pin",
             "construct blowup --q", "random group --delta", "random sequence --N", "random sequence --epsilon --N"],
    )
    def test_an_option_the_command_does_not_read_exits_2(self, capsys, int_set_file, group_set_file, argv, message):
        # "missing.json" does not exist: trial-only options are refused before --probs is read
        files = {"SET": int_set_file, "GROUP": group_set_file}
        code, out, err = run_cli(capsys, *(files.get(arg, arg) for arg in argv))
        assert (code, out) == (2, "")
        assert err.endswith(message + "\n"), err

    @pytest.mark.parametrize("manifest", [False, True], ids=["no-manifest", "manifest"])
    def test_only_a_manifest_hashes_the_inputs(self, int_set_file, tmp_path, manifest):
        # in a fresh process: the sha256 of an input is taken, and hashlib
        # imported, only for a manifest that records it
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        script = (
            "import sys, diffsets.cli as cli\n"
            "code = cli.dispatch(sys.argv[1:])\n"
            "print('hashlib' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        argv = ["verify", "--set", int_set_file, "--g", "1", "--N", "3"]
        if manifest:
            argv += ["--manifest", str(tmp_path / "m.json")]
        fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env, text=True)
        assert (fresh.returncode, fresh.stdout.splitlines()[-1]) == (0, str(manifest)), fresh.stderr
