"""Walk through the deployment config format.

Parses the baseline file, shows its diagnostics and the derived worker plan,
then prints the four built-in presets in canonical form.
"""

from pathlib import Path

from tierplan.config import PRESET_NAMES, check_config, load_preset, render_config, worker_plan

BASELINE = Path(__file__).parent / "configs" / "baseline.conf"


def main() -> None:
    text = BASELINE.read_text(encoding="utf-8")
    print(f"== {BASELINE.name} ==")
    config, diagnostics = check_config(text)
    for diag in diagnostics:
        print(f"  {diag}")
    if config is None:
        print("  the file is unusable, stopping here")
        return

    plan = worker_plan(config)
    print(f"  worker tier: {plan.worker_tier}")
    print(f"  workers: {plan.workers}, controllers: {plan.controllers}, "
          f"endpoints: {plan.sources} ({plan.endpoints_per_worker} per worker)")

    # any config parses back to the same object after rendering
    assert check_config(render_config(config))[0] == config

    for name in PRESET_NAMES:
        print(f"\n== preset {name} ==")
        print(render_config(load_preset(name)).rstrip())


if __name__ == "__main__":
    main()
