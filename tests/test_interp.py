"""Interpreter semantics tests: the simulated machine must execute MiniC
with C semantics, since transformation correctness is judged by output
equality."""

import pytest

from repro.frontend import Program
from repro.runtime import Machine, run_program, StepLimitExceeded
from repro.runtime.codegen import _touch_lines
from .conftest import wrap_main


def out(src, **kw):
    r = run_program(Program.from_source(src), **kw)
    return r.stdout


class TestArithmetic:
    def test_integer_ops(self, stdout_of):
        src = wrap_main('printf("%d %d %d %d", 7+3, 7-3, 7*3, 7&3);')
        assert stdout_of(src) == "10 4 21 3"

    def test_c_division_truncates_toward_zero(self, stdout_of):
        src = wrap_main('printf("%d %d %d %d", 7/2, -7/2, 7%2, -7%2);')
        assert stdout_of(src) == "3 -3 1 -1"

    def test_shifts_and_bitops(self, stdout_of):
        src = wrap_main('printf("%d %d %d %d", 1<<4, 32>>2, 5^3, 5|2);')
        assert stdout_of(src) == "16 8 6 7"

    def test_float_arith(self, stdout_of):
        src = wrap_main('printf("%.2f %.2f", 1.5 * 2.0, 7.0 / 2.0);')
        assert stdout_of(src) == "3.00 3.50"

    def test_mixed_int_float(self, stdout_of):
        src = wrap_main('printf("%.1f", 1 + 0.5);')
        assert stdout_of(src) == "1.5"

    def test_comparisons(self, stdout_of):
        src = wrap_main('printf("%d%d%d%d%d%d", 1<2, 2<=2, 3>4, '
                        '4>=4, 1==1, 1!=1);')
        assert stdout_of(src) == "110110"

    def test_logical_short_circuit(self, stdout_of):
        src = """
        int calls;
        int bump() { calls++; return 1; }
        int main() {
            int a = 0 && bump();
            int b = 1 || bump();
            printf("%d %d %d", a, b, calls);
            return 0;
        }
        """
        assert stdout_of(src) == "0 1 0"

    def test_conditional_expr(self, stdout_of):
        src = wrap_main('printf("%d %d", 1 ? 10 : 20, 0 ? 10 : 20);')
        assert stdout_of(src) == "10 20"

    def test_unary_ops(self, stdout_of):
        src = wrap_main('printf("%d %d %d", -5, !0, ~0);')
        assert stdout_of(src) == "-5 1 -1"

    def test_comma_operator(self, stdout_of):
        src = wrap_main('int x = (1, 2, 3); printf("%d", x);')
        assert stdout_of(src) == "3"

    def test_cast_float_to_int_truncates(self, stdout_of):
        src = wrap_main('printf("%d %d", (int) 2.9, (int) -2.9);')
        assert stdout_of(src) == "2 -2"

    def test_int_wrapping_on_store(self, stdout_of):
        src = """
        struct s { char c; unsigned char u; };
        struct s g;
        int main() {
            g.c = 300;
            g.u = 300;
            printf("%d %d", (int) g.c, (int) g.u);
            return 0;
        }
        """
        assert stdout_of(src) == "44 44"


class TestControlFlow:
    def test_while_loop(self, stdout_of):
        src = wrap_main(
            'int i = 0; int s = 0; while (i < 5) { s += i; i++; }'
            'printf("%d", s);')
        assert stdout_of(src) == "10"

    def test_for_loop(self, stdout_of):
        src = wrap_main(
            'int i; long f = 1; for (i = 1; i <= 6; i++) f *= i;'
            'printf("%ld", f);')
        assert stdout_of(src) == "720"

    def test_do_while_runs_once(self, stdout_of):
        src = wrap_main('int n = 0; do { n++; } while (0); '
                        'printf("%d", n);')
        assert stdout_of(src) == "1"

    def test_break_continue(self, stdout_of):
        src = wrap_main(
            'int i; int s = 0;'
            'for (i = 0; i < 100; i++) {'
            '  if (i % 2) continue;'
            '  if (i > 8) break;'
            '  s += i; }'
            'printf("%d", s);')
        assert stdout_of(src) == "20"

    def test_nested_loops(self, stdout_of):
        src = wrap_main(
            'int i; int j; int s = 0;'
            'for (i = 0; i < 3; i++) for (j = 0; j < 3; j++) s += i * j;'
            'printf("%d", s);')
        assert stdout_of(src) == "9"

    def test_cycle_limit_raises(self):
        src = "int main() { while (1) { } return 0; }"
        with pytest.raises(StepLimitExceeded):
            run_program(Program.from_source(src), cycle_limit=10_000)


class TestFunctions:
    def test_call_and_return(self, stdout_of):
        src = """
        int add(int a, int b) { return a + b; }
        int main() { printf("%d", add(2, 40)); return 0; }
        """
        assert stdout_of(src) == "42"

    def test_recursion(self, stdout_of):
        src = """
        long fib(long n) { if (n < 2) return n;
                           return fib(n-1) + fib(n-2); }
        int main() { printf("%ld", fib(12)); return 0; }
        """
        assert stdout_of(src) == "144"

    def test_mutual_recursion(self, stdout_of):
        src = """
        int odd(int n);
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int odd(int n) { if (n == 0) return 0; return even(n - 1); }
        int main() { printf("%d%d", even(10), odd(10)); return 0; }
        """
        assert stdout_of(src) == "10"

    def test_void_function(self, stdout_of):
        src = """
        int g;
        void setg(int v) { g = v; }
        int main() { setg(9); printf("%d", g); return 0; }
        """
        assert stdout_of(src) == "9"

    def test_function_pointer_call(self, stdout_of):
        src = """
        int twice(int x) { return 2 * x; }
        int thrice(int x) { return 3 * x; }
        int (*op)(int);
        int main() {
            op = twice;
            int a = op(10);
            op = thrice;
            printf("%d %d", a, op(10));
            return 0;
        }
        """
        assert stdout_of(src) == "20 30"

    def test_exit_builtin(self):
        r = run_program(Program.from_source(
            'int main() { exit(3); return 0; }'))
        assert r.exit_code == 3

    def test_external_function_stub(self, stdout_of):
        src = """
        long mystery(long x);
        int main() { printf("%ld", mystery(5)); return 0; }
        """
        assert stdout_of(src) == "0"

    def test_exit_code_from_main(self):
        r = run_program(Program.from_source("int main() { return 7; }"))
        assert r.exit_code == 7


class TestPointersAndStructs:
    def test_address_of_local(self, stdout_of):
        src = wrap_main('int x = 1; int *p = &x; *p = 42; '
                        'printf("%d", x);')
        assert stdout_of(src) == "42"

    def test_pointer_arithmetic_scaling(self, stdout_of):
        src = wrap_main(
            'long a[4]; a[0] = 1; a[1] = 2; a[2] = 3;'
            'long *p = a; p = p + 2; printf("%ld", *p);')
        assert stdout_of(src) == "3"

    def test_pointer_difference(self, stdout_of):
        src = wrap_main('double a[8]; printf("%ld", (&a[6]) - (&a[2]));')
        assert stdout_of(src) == "4"

    def test_struct_field_access(self, stdout_of):
        src = """
        struct p { int x; int y; };
        int main() {
            struct p v;
            v.x = 3; v.y = 4;
            printf("%d", v.x * v.x + v.y * v.y);
            return 0;
        }
        """
        assert stdout_of(src) == "25"

    def test_struct_pointer_arrow(self, stdout_of):
        src = """
        struct p { int x; };
        int main() {
            struct p v;
            struct p *q = &v;
            q->x = 8;
            printf("%d", v.x);
            return 0;
        }
        """
        assert stdout_of(src) == "8"

    def test_array_of_structs(self, stdout_of):
        src = """
        struct e { long k; double w; };
        struct e *tab;
        int main() {
            int i;
            tab = (struct e*) malloc(10 * sizeof(struct e));
            for (i = 0; i < 10; i++) { tab[i].k = i; tab[i].w = i*0.5; }
            printf("%ld %.1f", tab[7].k, tab[7].w);
            return 0;
        }
        """
        assert stdout_of(src) == "7 3.5"

    def test_linked_list(self, stdout_of):
        src = """
        struct n { long v; struct n *next; };
        int main() {
            int i;
            struct n *head = NULL;
            for (i = 0; i < 5; i++) {
                struct n *node = (struct n*) malloc(sizeof(struct n));
                node->v = i;
                node->next = head;
                head = node;
            }
            long s = 0;
            while (head != NULL) { s = s * 10 + head->v; head = head->next; }
            printf("%ld", s);
            return 0;
        }
        """
        assert stdout_of(src) == "43210"

    def test_nested_struct_access(self, stdout_of):
        src = """
        struct inner { int a; int b; };
        struct outer { struct inner in; long k; };
        int main() {
            struct outer o;
            o.in.a = 1; o.in.b = 2; o.k = 3;
            printf("%d%d%ld", o.in.a, o.in.b, o.k);
            return 0;
        }
        """
        assert stdout_of(src) == "123"

    def test_bitfield_read_write(self, stdout_of):
        src = """
        struct flags { int a : 3; int b : 4; unsigned c : 2; };
        struct flags g;
        int main() {
            g.a = 3; g.b = 9; g.c = 5;
            printf("%d %d %d", g.a, g.b, (int) g.c);
            return 0;
        }
        """
        # a:3 fits; b=9 fits in 4 signed -> -7; c=5 wraps to 1 in 2 bits
        assert stdout_of(src) == "3 -7 1"

    def test_incr_decr_on_fields(self, stdout_of):
        src = """
        struct c { long n; };
        struct c g;
        int main() {
            g.n = 5;
            g.n++;
            ++g.n;
            g.n--;
            printf("%ld", g.n);
            return 0;
        }
        """
        assert stdout_of(src) == "6"

    def test_compound_assign_on_field(self, stdout_of):
        src = """
        struct c { long n; double d; };
        struct c g;
        int main() {
            g.n = 10; g.n *= 3; g.n -= 5; g.n %= 7;
            g.d = 8.0; g.d /= 2.0;
            printf("%ld %.1f", g.n, g.d);
            return 0;
        }
        """
        assert stdout_of(src) == "4 4.0"

    def test_postfix_vs_prefix_value(self, stdout_of):
        src = wrap_main('int i = 5; int a = i++; int b = ++i;'
                        'printf("%d %d %d", a, b, i);')
        assert stdout_of(src) == "5 7 7"

    def test_pointer_increment_steps_element(self, stdout_of):
        src = """
        struct s { long a; long b; };
        int main() {
            struct s arr[3];
            arr[1].a = 77;
            struct s *p = arr;
            p++;
            printf("%ld", p->a);
            return 0;
        }
        """
        assert stdout_of(src) == "77"


class TestBuiltins:
    def test_memset_zeroes_struct_array(self, stdout_of):
        src = """
        struct s { long v; };
        int main() {
            struct s *a = (struct s*) malloc(4 * sizeof(struct s));
            a[2].v = 5;
            memset(a, 0, 4 * sizeof(struct s));
            printf("%ld", a[2].v);
            return 0;
        }
        """
        assert stdout_of(src) == "0"

    def test_memcpy(self, stdout_of):
        src = """
        int main() {
            long *a = (long*) malloc(32);
            long *b = (long*) malloc(32);
            a[1] = 13;
            memcpy(b, a, 32);
            printf("%ld", b[1]);
            return 0;
        }
        """
        assert stdout_of(src) == "13"

    def test_math_builtins(self, stdout_of):
        src = wrap_main(
            'printf("%.1f %.1f %.1f %d", sqrt(9.0), fabs(-2.5), '
            'floor(3.7), abs(-4));')
        assert stdout_of(src) == "3.0 2.5 3.0 4"

    def test_rand_deterministic(self):
        src = wrap_main('printf("%d %d", rand() % 100, rand() % 100);')
        assert out(src) == out(src)

    def test_srand_resets(self, stdout_of):
        src = wrap_main(
            'srand(7); int a = rand();'
            'srand(7); int b = rand();'
            'printf("%d", a == b);')
        assert stdout_of(src) == "1"

    def test_strlen_strcmp(self, stdout_of):
        src = wrap_main(
            'printf("%ld %d %d", strlen("hello"), '
            'strcmp("a", "a"), strcmp("a", "b") < 0);')
        assert stdout_of(src) == "5 0 1"

    def test_printf_formats(self, stdout_of):
        src = wrap_main(
            'printf("%d|%5d|%ld|%x|%c|%s|%.3f|%%", '
            '1, 2, 3, 255, 65, "ok", 0.5);')
        assert stdout_of(src) == "1|    2|3|ff|A|ok|0.500|%"

    def test_free_then_use_after_realloc_pattern(self, stdout_of):
        src = """
        int main() {
            long *a = (long*) malloc(16);
            a[0] = 9;
            a = (long*) realloc(a, 64);
            printf("%ld", a[0]);
            free(a);
            return 0;
        }
        """
        assert stdout_of(src) == "9"


class TestGlobals:
    def test_global_initializer(self, stdout_of):
        src = "long g = 40 + 2;\n" + wrap_main('printf("%ld", g);')
        assert stdout_of(src) == "42"

    def test_global_float_initializer(self, stdout_of):
        src = "double g = 1.5;\n" + wrap_main('printf("%.1f", g);')
        assert stdout_of(src) == "1.5"

    def test_globals_zero_initialized(self, stdout_of):
        src = "long g; double d; \n" + \
            wrap_main('printf("%ld %.1f", g, d);')
        assert stdout_of(src) == "0 0.0"

    def test_global_array(self, stdout_of):
        src = "long tab[8];\n" + wrap_main(
            'int i; for (i = 0; i < 8; i++) tab[i] = i * i;'
            'printf("%ld", tab[5]);')
        assert stdout_of(src) == "25"


class TestCycleAccounting:
    def test_cycles_positive_and_monotone_with_work(self):
        short = run_program(Program.from_source(wrap_main(
            "int i; int s = 0; for (i = 0; i < 10; i++) s += i;")))
        long_ = run_program(Program.from_source(wrap_main(
            "int i; int s = 0; for (i = 0; i < 1000; i++) s += i;")))
        assert 0 < short.cycles < long_.cycles

    def test_memory_latency_included(self):
        # touching scattered memory must cost more than registers
        reg = run_program(Program.from_source(wrap_main(
            "int i; long s = 0; for (i = 0; i < 500; i++) s += i;")))
        mem = run_program(Program.from_source(
            "long tab[4096];\n" + wrap_main(
                "int i; long s = 0;"
                "for (i = 0; i < 500; i++) s += tab[(i * 67) % 4096];")))
        assert mem.cycles > reg.cycles

    def test_zero_length_stream_costs_nothing(self):
        # a 0-byte memset/memcpy/fwrite on an unaligned pointer must not
        # be charged the line it points into
        m = Machine()
        _touch_lines(m, 0x1001, 0, True)
        assert (m.cache.accesses, m.cycles) == (0, 0)
        _touch_lines(m, 0x1001, 1, True)
        assert m.cache.accesses == 1
