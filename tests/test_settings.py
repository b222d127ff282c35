"""No setting that only the tests set: every key that a command reads is
set by at least one checked-in config of that command."""

import json
import subprocess
from pathlib import Path

from stburgers import cli

ROOT = Path(__file__).resolve().parents[1]

# keys that no checked-in config sets, kept with the reason; the solver
# keys come under "solver", since one reader serves every command's
# solver section
NOT_IN_CONFIGS = {
    ("solver", "solver.max_newton"): "set only by CI's solver.max_newton=1 overrides and by tests/test_cli.py",
    ("colehopf", "solver"): "the uniqueness solves read the solver section that solve configs set",
    ("colehopf", "phi_file"): "an input mode (a phi profile to check for positivity), not a setting",
}


def read_settings() -> dict[str, list[str]]:
    """The dotted keys that each command reads, and under "solver" the
    keys of the solver section."""
    keys = {
        command: [*top, *(f"outputs.{key}" for key in cli.OUTPUT_KEYS[command])]
        for command, top in cli.COMMAND_KEYS.items()
    }
    keys["colehopf"] += [key for key in cli.PHI_FILE_KEYS if key not in keys["colehopf"]]
    keys["solver"] = [f"solver.{key}" for key in cli.SOLVER_KEYS]
    return keys


def checked_in_configs() -> dict[str, list[dict]]:
    """The checked-in configs of each command, by the map that CI runs
    them by, and under "solver" every one of them."""
    script = ROOT / ".github" / "config-command.sh"
    configs = {command: [] for command in cli.COMMAND_KEYS}
    for path in sorted((ROOT / "configs").glob("*.json")):
        command = subprocess.run(
            ["sh", str(script), str(path)], capture_output=True, text=True, check=True
        ).stdout.strip()
        configs[command].append(json.loads(path.read_text()))
    configs["solver"] = [cfg for group in configs.values() for cfg in group]
    return configs


def _sets(cfg: dict, key: str) -> bool:
    node = cfg
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


def unset_settings(settings: dict[str, list[str]], configs: dict[str, list[dict]]) -> list[tuple[str, str]]:
    """(command, key) of each key in `settings` that none of the
    command's `configs` sets."""
    return [
        (command, key)
        for command, keys in settings.items()
        for key in keys
        if not any(_sets(cfg, key) for cfg in configs[command])
    ]


def test_every_setting_is_set_by_a_checked_in_config():
    found = unset_settings(read_settings(), checked_in_configs())
    unset = [key for key in found if key not in NOT_IN_CONFIGS]
    assert not unset, "no checked-in config sets " + ", ".join(f"{c}: {k}" for c, k in unset)
    # an exception that a config has come to set is no longer one
    assert set(NOT_IN_CONFIGS) <= set(found)


def test_the_guard_finds_a_key_that_no_config_sets():
    settings = {"a": ["x", "outputs.y", "outputs.z"]}
    configs = {"a": [{"x": 1, "outputs": {"y": "f"}}, {"outputs": 2}]}
    assert unset_settings(settings, configs) == [("a", "outputs.z")]
