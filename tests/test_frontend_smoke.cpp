#include <gtest/gtest.h>
#include "frontend/compiler.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "ir/printer.h"

using namespace repro;

TEST(Smoke, DotProduct)
{
    const char *src = R"(
        double dot(double *a, double *b, int n) {
            double d = 0.0;
            for (int i = 0; i < n; i++)
                d = d + a[i] * b[i];
            return d;
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    std::string text = ir::printModule(module);
    fprintf(stderr, "%s\n", text.c_str());

    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    uint64_t a = mem.allocate(4 * 8), b = mem.allocate(4 * 8);
    for (int i = 0; i < 4; ++i) {
        mem.store<double>(a + 8 * i, i + 1.0);
        mem.store<double>(b + 8 * i, 2.0);
    }
    auto r = interp.run(module.functionByName("dot"),
                        {interp::RuntimeValue::makeInt(a),
                         interp::RuntimeValue::makeInt(b),
                         interp::RuntimeValue::makeInt(4)});
    EXPECT_DOUBLE_EQ(r.f, 20.0);
}

namespace {

/** "<kind>:<text>@<line>:<col>" per token, space-separated. */
std::string
renderTokens(const std::string &src)
{
    DiagEngine diags;
    std::vector<frontend::Token> tokens = frontend::lexMiniC(src, diags);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    std::string out;
    for (const frontend::Token &t : tokens) {
        static const char kKind[] = {'E', 'I', 'N', 'F', 'K', 'P'};
        if (!out.empty())
            out += ' ';
        out += kKind[static_cast<int>(t.kind)];
        out += ':' + t.text + '@' + std::to_string(t.loc.line) + ':' +
               std::to_string(t.loc.column);
    }
    return out;
}

} // namespace

// Pins the lexer's exact token stream: kinds, texts and positions of
// every punctuator (longest match first), both comment forms, number
// suffixes and exponents, and every keyword.
TEST(Lexer, TokenStreamIsPinned)
{
    struct Case
    {
        const char *source;
        const char *tokens;
    };
    const Case cases[] = {
        {"<<= >>= ... -> == != <= >= && || ++ -- += -= *= /= %= << >>",
         "P:<<=@1:1 P:>>=@1:5 P:...@1:9 P:->@1:13 P:==@1:16 P:!=@1:19 "
         "P:<=@1:22 P:>=@1:25 P:&&@1:28 P:||@1:31 P:++@1:34 P:--@1:37 "
         "P:+=@1:40 P:-=@1:43 P:*=@1:46 P:/=@1:49 P:%=@1:52 P:<<@1:55 "
         "P:>>@1:58 E:@1:60"},
        {"+ - * / % = < > ! & | ^ ~ ( ) [ ] { } , ; ? : .",
         "P:+@1:1 P:-@1:3 P:*@1:5 P:/@1:7 P:%@1:9 P:=@1:11 P:<@1:13 "
         "P:>@1:15 P:!@1:17 P:&@1:19 P:|@1:21 P:^@1:23 P:~@1:25 "
         "P:(@1:27 P:)@1:29 P:[@1:31 P:]@1:33 P:{@1:35 P:}@1:37 "
         "P:,@1:39 P:;@1:41 P:?@1:43 P::@1:45 P:.@1:47 E:@1:48"},
        {"a<<=b>>=c...d->e",
         "I:a@1:1 P:<<=@1:2 I:b@1:5 P:>>=@1:6 I:c@1:9 P:...@1:10 "
         "I:d@1:13 P:->@1:14 I:e@1:16 E:@1:17"},
        {"a---b<=>c....d&&&e|||f",
         "I:a@1:1 P:--@1:2 P:-@1:4 I:b@1:5 P:<=@1:6 P:>@1:8 I:c@1:9 "
         "P:...@1:10 P:.@1:13 I:d@1:14 P:&&@1:15 P:&@1:17 I:e@1:18 "
         "P:||@1:19 P:|@1:21 I:f@1:22 E:@1:23"},
        {"a // line comment\nb /* block\n comment */ c /**/d/ /*x*/\n",
         "I:a@1:1 I:b@2:1 I:c@3:13 I:d@3:19 P:/@3:20 E:@4:1"},
        {"0 42 7L 7l 8u 9UL 1.5 .5 1. 2.5f 3F 1e10 1E-3 2.5e+4f 6.0L",
         "N:0@1:1 N:42@1:3 N:7L@1:6 N:7l@1:9 N:8u@1:12 N:9UL@1:15 "
         "F:1.5@1:19 F:.5@1:23 F:1.@1:26 F:2.5f@1:29 F:3F@1:34 "
         "F:1e10@1:37 F:1E-3@1:42 F:2.5e+4f@1:47 F:6.0L@1:55 E:@1:59"},
        {"int long float double void for while do if else return break "
         "continue const __protect",
         "K:int@1:1 K:long@1:5 K:float@1:10 K:double@1:16 K:void@1:23 "
         "K:for@1:28 K:while@1:32 K:do@1:38 K:if@1:41 K:else@1:44 "
         "K:return@1:49 K:break@1:56 K:continue@1:62 K:const@1:71 "
         "I:__protect@1:77 E:@1:86"},
        {"__protect(eddi) integer fort _x x1 __protected",
         "I:__protect@1:1 P:(@1:10 I:eddi@1:11 P:)@1:15 I:integer@1:17 "
         "I:fort@1:25 I:_x@1:30 I:x1@1:33 I:__protected@1:36 E:@1:47"},
        {"\tint\r\n  x;\f\v",
         "K:int@1:2 I:x@2:3 P:;@2:4 E:@2:7"},
    };
    for (const Case &c : cases)
        EXPECT_EQ(renderTokens(c.source), c.tokens) << c.source;
}

// Out-of-range and malformed number literals are located parse
// errors, never an exception out of the compiler.
TEST(Lexer, BadNumberLiteralsAreDiagnosed)
{
    struct Case
    {
        const char *source;
        const char *diagnostic;
    };
    const Case cases[] = {
        {"int f() { return 99999999999999999999; }",
         "error at 1:18: integer literal '99999999999999999999' out of "
         "range"},
        {"double f() { return 1e999; }",
         "error at 1:21: floating literal '1e999' out of range"},
        {"int f(int a[99999999999999999999]) { return 0; }",
         "error at 1:13: integer literal '99999999999999999999' out of "
         "range"},
        {"double f() { return 1.2.3; }",
         "error at 1:21: malformed number literal '1.2.3'"},
        {"double f() { return 1e+; }",
         "error at 1:21: malformed number literal '1e+'"},
        {"double f() { return 2.5e3e4; }",
         "error at 1:21: malformed number literal '2.5e3e4'"},
        {"int f() { return 7u5; }",
         "error at 1:18: malformed number literal '7u5'"},
    };
    for (const Case &c : cases) {
        ir::Module module;
        DiagEngine diags;
        EXPECT_FALSE(frontend::compileMiniC(c.source, module, diags))
            << c.source;
        ASSERT_FALSE(diags.all().empty()) << c.source;
        EXPECT_EQ(diags.all().front().str(), c.diagnostic);
    }

    // The largest literals still in range keep their values.
    ir::Module module;
    frontend::compileMiniCOrDie(
        "long f() { return 9223372036854775807L; }\n"
        "double g() { return 1.5e308 + .5 + 1. + 2e-3; }\n",
        module);
    const std::string text = ir::printModule(module);
    EXPECT_NE(text.find("9223372036854775807"), std::string::npos)
        << text;
}

namespace {

std::string
repeat(const std::string &s, int n)
{
    std::string out;
    out.reserve(s.size() * static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out += s;
    return out;
}

/** "return a + a + ... + a;" with @p terms terms. */
std::string
chainSource(int terms)
{
    return "int f(int a) { return a" + repeat(" + a", terms - 1) +
           "; }";
}

/** The first diagnostic of compiling @p source, "" when it compiles. */
std::string
compileError(const std::string &source)
{
    ir::Module module;
    DiagEngine diags;
    if (frontend::compileMiniC(source, module, diags))
        return "";
    return diags.all().empty() ? "no diagnostic"
                               : diags.all().front().str();
}

} // namespace

// Input nested past kMaxNesting is a located parse error instead of a
// stack overflow in the parser, codegen or the AST's destructor.
TEST(Nesting, DeepParenthesesAreALocatedError)
{
    const int n = 1000000;
    EXPECT_EQ(compileError("int f(int a) { return " + repeat("(", n) +
                           "a" + repeat(")", n) + "; }"),
              "error at 1:522: nesting deeper than 1000 levels");
}

TEST(Nesting, LongOperatorChainIsALocatedError)
{
    // The chain is built by a loop, not by recursion: the tree's own
    // depth is what the limit counts.
    EXPECT_EQ(compileError(chainSource(100000)),
              "error at 1:4021: nesting deeper than 1000 levels");
    EXPECT_EQ(compileError("int f(int *a) { return a" +
                           repeat("[0]", 100000) + "; }"),
              "error at 1:3022: nesting deeper than 1000 levels");
}

TEST(Nesting, LimitIsExact)
{
    EXPECT_EQ(compileError(chainSource(frontend::kMaxNesting)), "");
    EXPECT_EQ(compileError(chainSource(frontend::kMaxNesting + 1)),
              "error at 1:4021: nesting deeper than 1000 levels");
    EXPECT_EQ(compileError("int f(int a) { " + repeat("{", 900) +
                           "a = a + 1;" + repeat("}", 900) +
                           " return a; }"),
              "");
}

// Ill-typed programs are located compile errors from codegen, never
// an InternalError out of the IR builder or a rejection by the final
// verifier (which carries no line or column).
TEST(TypeErrors, IllTypedProgramsAreLocatedErrors)
{
    struct Case
    {
        const char *source;
        const char *diagnostic;
    };
    const Case cases[] = {
        {"int f(int *a) { return a[0][0]; }",
         "error at 1:28: subscripted value of type i32 is not a pointer "
         "or array"},
        {"int h(int a) { return *a; }",
         "error at 1:23: dereferenced value of type i32 is not a pointer "
         "or array"},
        {"void k(int a) { a[0] = 1; }",
         "error at 1:18: subscripted value of type i32 is not a pointer "
         "or array"},
        {"void k(int a) { *a = 1; }",
         "error at 1:17: dereferenced value of type i32 is not a pointer "
         "or array"},
        {"double f(double *p) { return p[0.5]; }",
         "error at 1:31: array subscript is not an integer"},
        {"int f(double d) { return d % 2; }",
         "error at 1:28: invalid operand type double for '%'"},
        {"int f(double d) { return d & 1; }",
         "error at 1:28: invalid operand type double for '&'"},
        {"int f(double d) { return d | 1; }",
         "error at 1:28: invalid operand type double for '|'"},
        {"int f(double d) { return d ^ 1; }",
         "error at 1:28: invalid operand type double for '^'"},
        {"int f(double d) { return d << 1; }",
         "error at 1:28: invalid operand type double for '<<'"},
        {"int f(double d) { return d >> 1; }",
         "error at 1:28: invalid operand type double for '>>'"},
        {"int f(float d) { return ~d; }",
         "error at 1:25: invalid operand type float for '~'"},
        {"void f(double d) { d %= 2; }",
         "error at 1:22: invalid operand type double for '%='"},
        {"int f(double *p, double *q) { return p - q; }",
         "error at 1:40: invalid operand type double* for '-'"},
        {"int f(int a) { return; }",
         "error at 1:16: non-void function 'f' should return a value"},
        {"void g(); void f() { return g(); }",
         "error at 1:22: void function 'f' should not return a value"},
        {"double *f(int *q) { return q; }",
         "error at 1:21: cannot convert i32* to double*"},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(compileError(c.source), c.diagnostic) << c.source;
        // Boundary verification after codegen changes nothing: the
        // error comes before any IR is verified.
        ir::Module module;
        DiagEngine diags;
        EXPECT_FALSE(frontend::compileMiniC(c.source, module, diags,
                                            ir::VerifyMode::Boundaries));
    }
}

// Array parameters decay to pointers: `T a[]`, `T a[N]` and
// `T a[][M]` compile as `T *`, `T *` and `[M x T] *` and index like
// the arrays they stand for.
TEST(TypeErrors, ArrayParametersDecayToPointers)
{
    const char *src = R"(
        double f(double a[][4], double x[], double y[2], int i) {
            double *row = a[i];
            double *p = x;
            p++;
            y[1] = a[i][3] + *a[1] + **a;
            return row[2] + *p + x[0] + y[1] + (i > 0 ? a[0] : x)[1];
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module, ir::VerifyMode::Boundaries);
    ir::Function *f = module.functionByName("f");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->arg(0)->type()->str(), "[4 x double]*");
    EXPECT_EQ(f->arg(1)->type()->str(), "double*");
    EXPECT_EQ(f->arg(2)->type()->str(), "double*");

    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    uint64_t a = mem.allocate(8 * 8), x = mem.allocate(3 * 8),
             y = mem.allocate(2 * 8);
    for (int k = 0; k < 8; ++k)
        mem.store<double>(a + 8 * k, k);           // a[r][c] = 4r + c
    for (int k = 0; k < 3; ++k)
        mem.store<double>(x + 8 * k, 10.0 * (k + 1)); // 10, 20, 30
    auto r = interp.run(f, {interp::RuntimeValue::makeInt(a),
                            interp::RuntimeValue::makeInt(x),
                            interp::RuntimeValue::makeInt(y),
                            interp::RuntimeValue::makeInt(1)});
    // y[1] = a[1][3] + a[1][0] + a[0][0] = 7 + 4 + 0
    EXPECT_DOUBLE_EQ(mem.load<double>(y + 8), 11.0);
    // row[2] + x[1] + x[0] + y[1] + a[0][1] = 6 + 20 + 10 + 11 + 1
    EXPECT_DOUBLE_EQ(r.f, 48.0);
}
