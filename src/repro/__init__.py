"""repro — reproduction of "Practical Structure Layout Optimization and
Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).

A self-contained structure-layout optimization framework: a MiniC
frontend, a whole-program FE/IPA/BE pipeline implementing structure
splitting, structure peeling, dead field removal and field reordering,
a simulated Itanium-style machine (caches + PMU) to measure the effects,
and the compiler-based advisory tool.

Quickstart::

    from repro import Session, run_program

    result = Session().compile_source(source_text)   # analyze + transform
    before = run_program(result.program)
    after = run_program(result.transformed)
    print(before.cycles / after.cycles)

:class:`repro.api.Session` is the one in-process entry point; it also
compiles multi-unit programs (``compile_sources``) and serves typed
:class:`CompileRequest` objects (``execute``).
"""

from .frontend import Program
from .core import (
    Compiler, CompilerOptions, CompilationResult, SCHEMES,
)
from .api import (
    CompileOptions, CompileReply, CompileRequest, Session,
)
from .runtime import run_program, RunResult, Machine, CompiledProgram
from .advisor import advisor_report, classify_report

__version__ = "1.1.0"

__all__ = [
    "Program", "Compiler", "CompilerOptions", "CompilationResult",
    "SCHEMES",
    "Session", "CompileOptions", "CompileRequest", "CompileReply",
    "run_program", "RunResult", "Machine", "CompiledProgram",
    "advisor_report", "classify_report", "__version__",
]
