package cc_test

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/vm"
)

// compileRun compiles src, runs it with the given integer and byte inputs,
// and returns the machine.
func compileRun(t *testing.T, src string, ints []int32, bytes []byte) *vm.Machine {
	t.Helper()
	c, err := cc.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		t.Fatalf("Load: %v", err)
	}
	m.SetInput(ints)
	m.SetByteInput(bytes)
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

// mustOutput compiles and runs, requiring a clean halt and exact output.
func mustOutput(t *testing.T, src string, ints []int32, want string) {
	t.Helper()
	m := compileRun(t, src, ints, nil)
	if m.State() != vm.StateHalted {
		exc, at := m.Exception()
		t.Fatalf("state = %v (exc %v at %#x)", m.State(), exc, at)
	}
	if got := string(m.Output()); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestReturnValue(t *testing.T) {
	m := compileRun(t, `int main() { return 42; }`, nil, nil)
	if m.State() != vm.StateHalted || m.ExitStatus() != 42 {
		t.Fatalf("state %v exit %d", m.State(), m.ExitStatus())
	}
}

func TestVoidMainExitsZero(t *testing.T) {
	m := compileRun(t, `void main() { print_int(1); }`, nil, nil)
	if m.State() != vm.StateHalted || m.ExitStatus() != 0 {
		t.Fatalf("state %v exit %d", m.State(), m.ExitStatus())
	}
}

func TestArithmeticExpressions(t *testing.T) {
	tests := []struct {
		name string
		expr string
		want string
	}{
		{"precedence", "2 + 3 * 4", "14\n"},
		{"parens", "(2 + 3) * 4", "20\n"},
		{"division", "17 / 5", "3\n"},
		{"negative division", "-17 / 5", "-3\n"},
		{"modulo", "17 % 5", "2\n"},
		{"negative modulo", "-17 % 5", "-2\n"},
		{"unary minus", "-(3 - 10)", "7\n"},
		{"nested", "((1+2)*(3+4)-5)/2", "8\n"},
		{"comparison value", "(3 < 5) + (5 < 3)", "1\n"},
		{"equality value", "(3 == 3) + (3 != 3)", "1\n"},
		{"logical and value", "(1 && 2) + (1 && 0)", "1\n"},
		{"logical or value", "(0 || 0) + (0 || 7)", "1\n"},
		{"not", "!0 + !5", "1\n"},
		{"ternary true", "1 ? 10 : 20", "10\n"},
		{"ternary false", "0 ? 10 : 20", "20\n"},
		{"ternary nested", "0 ? 1 : 1 ? 2 : 3", "2\n"},
		{"char literal", "'A'", "65\n"},
		{"big constant", "100000 * 3", "300000\n"},
		{"deep expression", "1+2*(3+4*(5+6*(7+8)))", "767\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mustOutput(t, "int main() { print_int("+tt.expr+"); return 0; }", nil, tt.want)
		})
	}
}

func TestVariablesAndAssignment(t *testing.T) {
	src := `
int main() {
    int a;
    int b = 7;
    a = 3;
    a = a + b;
    b = a - 1;
    print_int(a);
    print_int(b);
    a += 5;
    b -= 2;
    print_int(a);
    print_int(b);
    a++;
    ++a;
    b--;
    print_int(a);
    print_int(b);
    return 0;
}`
	mustOutput(t, src, nil, "10\n9\n15\n7\n17\n6\n")
}

func TestChainedAssignment(t *testing.T) {
	src := `
int main() {
    int a; int b; int c;
    a = b = c = 5;
    print_int(a + b + c);
    return 0;
}`
	mustOutput(t, src, nil, "15\n")
}

func TestIfElseChain(t *testing.T) {
	src := `
int classify(int x) {
    if (x < 0) return -1;
    else if (x == 0) return 0;
    else return 1;
}
int main() {
    print_int(classify(-5));
    print_int(classify(0));
    print_int(classify(9));
    return 0;
}`
	mustOutput(t, src, nil, "-1\n0\n1\n")
}

func TestWhileLoop(t *testing.T) {
	src := `
int main() {
    int i = 0; int sum = 0;
    while (i < 10) { sum = sum + i; i = i + 1; }
    print_int(sum);
    return 0;
}`
	mustOutput(t, src, nil, "45\n")
}

func TestForLoopWithBreakContinue(t *testing.T) {
	src := `
int main() {
    int i; int sum = 0;
    for (i = 0; i < 100; i++) {
        if (i % 2 == 0) continue;
        if (i > 10) break;
        sum += i;
    }
    print_int(sum);
    return 0;
}`
	// 1+3+5+7+9 = 25
	mustOutput(t, src, nil, "25\n")
}

func TestForWithoutCond(t *testing.T) {
	src := `
int main() {
    int i = 0;
    for (;;) {
        i++;
        if (i == 5) break;
    }
    print_int(i);
    return 0;
}`
	mustOutput(t, src, nil, "5\n")
}

func TestNestedLoops(t *testing.T) {
	src := `
int main() {
    int i; int j; int count = 0;
    for (i = 0; i < 5; i++)
        for (j = 0; j <= i; j++)
            count++;
    print_int(count);
    return 0;
}`
	mustOutput(t, src, nil, "15\n")
}

func TestRecursionFactorial(t *testing.T) {
	src := `
int fact(int n) {
    if (n <= 1) return 1;
    return n * fact(n - 1);
}
int main() {
    print_int(fact(10));
    return 0;
}`
	mustOutput(t, src, nil, "3628800\n")
}

func TestRecursionFibonacci(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(15));
    return 0;
}`
	mustOutput(t, src, nil, "610\n")
}

func TestMutualRecursion(t *testing.T) {
	src := `
int isOdd(int n);
int isEven(int n) {
    if (n == 0) return 1;
    return isOdd(n - 1);
}
int isOdd(int n) {
    if (n == 0) return 0;
    return isEven(n - 1);
}
int main() {
    print_int(isEven(10));
    print_int(isOdd(10));
    return 0;
}`
	// Forward declarations are not supported; the test uses definition order
	// instead. Adjust: define isOdd first as a real definition.
	src = `
int isOdd(int n) {
    if (n == 0) return 0;
    return isEven(n - 1);
}
int isEven(int n) {
    if (n == 0) return 1;
    return isOdd(n - 1);
}
int main() {
    print_int(isEven(10));
    print_int(isOdd(10));
    return 0;
}`
	mustOutput(t, src, nil, "1\n0\n")
}

func TestLocalArrays(t *testing.T) {
	src := `
int main() {
    int a[10];
    int i;
    for (i = 0; i < 10; i++) a[i] = i * i;
    int sum = 0;
    for (i = 0; i < 10; i++) sum += a[i];
    print_int(sum);
    return 0;
}`
	mustOutput(t, src, nil, "285\n")
}

func TestTwoDimensionalArrays(t *testing.T) {
	src := `
int main() {
    int m[4][4];
    int i; int j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            m[i][j] = i * 10 + j;
    print_int(m[2][3]);
    print_int(m[3][1]);
    int trace = 0;
    for (i = 0; i < 4; i++) trace += m[i][i];
    print_int(trace);
    return 0;
}`
	mustOutput(t, src, nil, "23\n31\n66\n")
}

func TestGlobalVariables(t *testing.T) {
	src := `
int counter = 100;
int table[5];
void bump(int n) { counter = counter + n; }
int main() {
    int i;
    for (i = 0; i < 5; i++) table[i] = i;
    bump(20);
    bump(3);
    print_int(counter);
    print_int(table[4]);
    return 0;
}`
	mustOutput(t, src, nil, "123\n4\n")
}

func TestGlobal2DArray(t *testing.T) {
	src := `
int grid[8][8];
int main() {
    int x; int y;
    for (x = 0; x < 8; x++)
        for (y = 0; y < 8; y++)
            grid[x][y] = x * 8 + y;
    print_int(grid[7][7]);
    print_int(grid[0][5]);
    return 0;
}`
	mustOutput(t, src, nil, "63\n5\n")
}

func TestCharArraysAndStrings(t *testing.T) {
	src := `
int slen(char *s) {
    int n = 0;
    while (s[n] != 0) n++;
    return n;
}
int main() {
    char buf[16];
    char *msg = "hello";
    int i;
    int n = slen(msg);
    for (i = 0; i < n; i++) buf[i] = msg[i] - 32;
    buf[n] = 0;
    for (i = 0; buf[i] != 0; i++) print_char(buf[i]);
    print_char(10);
    return 0;
}`
	mustOutput(t, src, nil, "HELLO\n")
}

func TestPointers(t *testing.T) {
	src := `
void swap(int *a, int *b) {
    int t = *a;
    *a = *b;
    *b = t;
}
int main() {
    int x = 3; int y = 9;
    swap(&x, &y);
    print_int(x);
    print_int(y);
    int *p = &x;
    *p = 77;
    print_int(x);
    return 0;
}`
	mustOutput(t, src, nil, "9\n3\n77\n")
}

func TestPointerArithmetic(t *testing.T) {
	src := `
int main() {
    int a[5];
    int i;
    for (i = 0; i < 5; i++) a[i] = i + 1;
    int *p = a;
    print_int(*p);
    print_int(*(p + 2));
    p = p + 4;
    print_int(*p);
    return 0;
}`
	mustOutput(t, src, nil, "1\n3\n5\n")
}

func TestMallocLinkedList(t *testing.T) {
	// Linked list built from malloc'd two-word cells: cell[0]=value,
	// cell[1]=next pointer. This is the idiom the C.team9 dynamic-structure
	// variant uses.
	src := `
int main() {
    int *head = 0;
    int i;
    for (i = 1; i <= 5; i++) {
        int *cell = malloc(8);
        cell[0] = i * i;
        cell[1] = head;
        head = cell;
    }
    int sum = 0;
    int *p = head;
    while (p != 0) {
        sum += p[0];
        p = p[1];
    }
    print_int(sum);
    return 0;
}`
	mustOutput(t, src, nil, "55\n")
}

func TestReadWriteIO(t *testing.T) {
	src := `
int main() {
    int n = read_int();
    int i; int sum = 0;
    for (i = 0; i < n; i++) sum += read_int();
    print_int(sum);
    return 0;
}`
	mustOutput(t, src, []int32{4, 10, 20, 30, 2}, "62\n")
}

func TestReadChars(t *testing.T) {
	src := `
int main() {
    int c;
    while ((c = read_char()) != -1) {
        if (c >= 'a') {
            if (c <= 'z') c = c - 32;
        }
        print_char(c);
    }
    return 0;
}`
	m := compileRun(t, src, nil, []byte("a1z!"))
	if got := string(m.Output()); got != "A1Z!" {
		t.Errorf("output %q", got)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	src := `
int calls = 0;
int bump(int v) { calls++; return v; }
int main() {
    if (bump(0) && bump(1)) print_int(-1);
    print_int(calls);
    calls = 0;
    if (bump(1) || bump(1)) print_int(calls);
    return 0;
}`
	mustOutput(t, src, nil, "1\n1\n")
}

func TestComplexConditions(t *testing.T) {
	src := `
int main() {
    int a = 5; int b = 10; int c = 0;
    if (a < b && b < 20) print_int(1);
    if (a > b || c == 0) print_int(2);
    if (!(a == b) && (c < a || b < c)) print_int(3);
    if ((a < b && c < a) || b == 0) print_int(4);
    return 0;
}`
	mustOutput(t, src, nil, "1\n2\n3\n4\n")
}

func TestTernaryAbsMax(t *testing.T) {
	// The shape of the paper's dist() function (Figure 6).
	src := `
int dist(int x1, int y1, int x2, int y2) {
    int dx = x1 - x2;
    int dy = y1 - y2;
    int ax = (dx > 0) ? dx : -dx;
    int ay = (dy > 0) ? dy : -dy;
    return (ax > ay) ? ax : ay;
}
int main() {
    print_int(dist(0, 0, 3, -7));
    print_int(dist(5, 5, 5, 5));
    return 0;
}`
	mustOutput(t, src, nil, "7\n0\n")
}

func TestFunctionWithEightParams(t *testing.T) {
	src := `
int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
    return a + b + c + d + e + f + g + h;
}
int main() {
    print_int(sum8(1, 2, 3, 4, 5, 6, 7, 8));
    return 0;
}`
	mustOutput(t, src, nil, "36\n")
}

func TestNestedCallsPreserveTemporaries(t *testing.T) {
	src := `
int add(int a, int b) { return a + b; }
int main() {
    print_int(add(add(1, 2), add(3, add(4, 5))));
    print_int(1000 + add(10, 20) * 2);
    return 0;
}`
	mustOutput(t, src, nil, "15\n1060\n")
}

func TestCommentsAreSkipped(t *testing.T) {
	src := `
// line comment
int main() {
    /* block
       comment */
    print_int(1); // trailing
    return 0;
}`
	mustOutput(t, src, nil, "1\n")
}

func TestDivisionByZeroCrashes(t *testing.T) {
	src := `
int main() {
    int a = 5; int b = 0;
    print_int(a / b);
    return 0;
}`
	m := compileRun(t, src, nil, nil)
	if m.State() != vm.StateCrashed {
		t.Fatalf("state = %v, want crashed", m.State())
	}
	if exc, _ := m.Exception(); exc != vm.ExcDivZero {
		t.Errorf("exception %v", exc)
	}
}

func TestWildPointerCrashes(t *testing.T) {
	src := `
int main() {
    int *p = 12;
    *p = 5;
    return 0;
}`
	m := compileRun(t, src, nil, nil)
	if m.State() != vm.StateCrashed {
		t.Fatalf("state = %v, want crashed", m.State())
	}
}

func TestInfiniteLoopHangs(t *testing.T) {
	c, err := cc.Compile(`int main() { while (1) {} return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(vm.Config{MaxCycles: 10000})
	if err := m.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.State() != vm.StateHung {
		t.Fatalf("state = %v, want hung", m.State())
	}
}

func TestDeepRecursionOverflows(t *testing.T) {
	src := `
int down(int n) { return down(n + 1); }
int main() { return down(0); }`
	m := compileRun(t, src, nil, nil)
	if m.State() != vm.StateCrashed {
		t.Fatalf("state = %v, want crashed", m.State())
	}
	if exc, _ := m.Exception(); exc != vm.ExcStackOvf {
		t.Errorf("exception %v, want stack overflow", exc)
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"no main", `int f() { return 0; }`, "no main"},
		{"undefined variable", `int main() { return x; }`, "undefined variable"},
		{"undefined function", `int main() { return f(); }`, "undefined function"},
		{"duplicate function", `int f(){return 0;} int f(){return 0;} int main(){return 0;}`, "duplicate function"},
		{"duplicate global", `int g; int g; int main(){return 0;}`, "duplicate global"},
		{"duplicate local", `int main() { int a; int a; return 0; }`, "duplicate variable"},
		{"arg count", `int f(int a){return a;} int main(){return f();}`, "takes 1 arguments"},
		{"break outside loop", `int main() { break; return 0; }`, "break outside"},
		{"continue outside loop", `int main() { continue; return 0; }`, "continue outside"},
		{"void variable", `int main() { void v; return 0; }`, "void type"},
		{"assign to literal", `int main() { 3 = 4; return 0; }`, "not assignable"},
		{"deref int", `int main() { int a; return *a; }`, "dereference"},
		{"index int", `int main() { int a; return a[0]; }`, "cannot index"},
		{"missing return value", `int f() { return; } int main(){ return f(); }`, "missing return value"},
		{"void returns value", `void f() { return 3; } int main(){ f(); return 0; }`, "returns a value"},
		{"builtin shadow", `int malloc(int n) { return n; } int main(){ return 0; }`, "shadows a builtin"},
		{"too many params", `int f(int a,int b,int c,int d,int e,int g,int h,int i,int j){return 0;} int main(){return 0;}`, "more than 8"},
		{"unterminated comment", `int main() { /* oops return 0; }`, "unterminated block comment"},
		{"bad token", "int main() { int a = 3 @ 4; }", "unexpected character"},
		{"global func collision", `int f; int f(){return 0;} int main(){return 0;}`, "collides"},
		{"syntax error", `int main() { if return; }`, "expected"},
		{"array dim zero", `int main() { int a[0]; return 0; }`, "positive"},
		{"global array init", `int g[3] = 5; int main(){return 0;}`, "array initialisers"},
		{"non-constant global init", `int g = f(); int main(){return 0;}`, "constant"},
		{"array past load limit", `int g[1000000]; int main(){return 0;}`, "load limit"},
		{"array size overflows int32", `int main() { int a[65536][65536]; return 0; }`, "load limit"},
		{"globals past load limit", `char a[300000]; char b[300000]; int main(){return 0;}`, "load limit"},
		{"image past load limit", `char a[524000]; int main(){return 0;}`, "load limit"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := cc.Compile(tt.src)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestMultiDeclarators(t *testing.T) {
	src := `
int main() {
    int a = 1, b = 2, c;
    c = a + b;
    print_int(c);
    return 0;
}`
	mustOutput(t, src, nil, "3\n")
}

func TestGlobalCharAndInit(t *testing.T) {
	src := `
char flag = 'x';
int base = 1000;
int main() {
    print_int(flag);
    print_int(base);
    flag = 'y';
    print_int(flag);
    return 0;
}`
	mustOutput(t, src, nil, "120\n1000\n121\n")
}

func TestEmptyStatementAndBlocks(t *testing.T) {
	src := `
int main() {
    ;
    { ; { print_int(9); } }
    return 0;
}`
	mustOutput(t, src, nil, "9\n")
}
