import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports every module of the package in the interpreter it runs in and
# prints the top-level names of all loaded modules that are neither the
# package nor in the standard library.
_PROBE = """
import pkgutil, sys
sys.path.insert(0, sys.argv[1])
import joinsample
for mod in pkgutil.iter_modules(joinsample.__path__):
    __import__(f"joinsample.{mod.name}")
top = {name.partition(".")[0] for name in sys.modules}
print(sorted(top - set(sys.stdlib_module_names) - {"__main__", "joinsample"}))
"""


def test_the_package_loads_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`; numpy and scipy are test
    # extras only. -S leaves site-packages off the path and keeps site's .pth
    # hooks from loading modules of their own, so importing an installed
    # dependency fails here too.
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(SRC)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout
