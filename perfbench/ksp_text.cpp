/**
 * @file
 * Renders a scalar kernel as `.ksp` source text (the grammar of
 * scalar/parse.h), so the serve workload can send Table-1 kernels over the
 * daemon wire the way `dioscc --remote` sends a file.
 *
 * `scalar::canonical_kernel_text` is not usable for this: its
 * `(params ...)`/`(arrays ...)` header and `(if c (then ...) (else ...))`
 * form do not re-parse (`parse_kernel` stops at "unknown statement
 * 'params'").
 */
#include "ksp_text.h"

namespace perfbench {

namespace {

using namespace diospyros::scalar;

void
write_int(const IntRef& e, std::string& out)
{
    switch (e->kind) {
      case IntExpr::Kind::kConst:
        out += std::to_string(e->value);
        return;
      case IntExpr::Kind::kVar:
        out += e->var.str();
        return;
      case IntExpr::Kind::kAdd:
      case IntExpr::Kind::kSub:
      case IntExpr::Kind::kMul:
        out += e->kind == IntExpr::Kind::kAdd   ? "(+ "
               : e->kind == IntExpr::Kind::kSub ? "(- "
                                                : "(* ";
        write_int(e->a, out);
        out += ' ';
        write_int(e->b, out);
        out += ')';
        return;
    }
}

void
write_cond(const Cond& c, std::string& out)
{
    const char* op = nullptr;
    switch (c.kind) {
      case Cond::Kind::kLt:
        op = "<";
        break;
      case Cond::Kind::kLe:
        op = "<=";
        break;
      case Cond::Kind::kGt:
        op = ">";
        break;
      case Cond::Kind::kGe:
        op = ">=";
        break;
      case Cond::Kind::kEq:
        op = "==";
        break;
      case Cond::Kind::kNe:
        op = "!=";
        break;
      case Cond::Kind::kAnd:
      case Cond::Kind::kOr:
        out += c.kind == Cond::Kind::kAnd ? "(and " : "(or ";
        write_cond(*c.c1, out);
        out += ' ';
        write_cond(*c.c2, out);
        out += ')';
        return;
      case Cond::Kind::kNot:
        out += "(not ";
        write_cond(*c.c1, out);
        out += ')';
        return;
    }
    out += '(';
    out += op;
    out += ' ';
    write_int(c.x, out);
    out += ' ';
    write_int(c.y, out);
    out += ')';
}

void
write_float(const FloatExpr& e, std::string& out)
{
    const char* op = nullptr;
    switch (e.kind) {
      case FloatExpr::Kind::kConst:
        out += std::to_string(e.value.num());
        if (!e.value.is_integer()) {
            out += '/';
            out += std::to_string(e.value.den());
        }
        return;
      case FloatExpr::Kind::kLoad:
        out += "(load ";
        out += e.array.str();
        out += ' ';
        write_int(e.index, out);
        out += ')';
        return;
      case FloatExpr::Kind::kAdd:
        op = "+";
        break;
      case FloatExpr::Kind::kSub:
        op = "-";
        break;
      case FloatExpr::Kind::kMul:
        op = "*";
        break;
      case FloatExpr::Kind::kDiv:
        op = "/";
        break;
      case FloatExpr::Kind::kNeg:
        op = "neg";
        break;
      case FloatExpr::Kind::kSqrt:
        op = "sqrt";
        break;
      case FloatExpr::Kind::kSgn:
        op = "sgn";
        break;
      case FloatExpr::Kind::kCall:
        op = "call";
        break;
    }
    out += '(';
    out += op;
    if (e.kind == FloatExpr::Kind::kCall) {
        out += ' ';
        out += e.fn.str();
    }
    for (const FloatRef& arg : e.args) {
        out += ' ';
        write_float(*arg, out);
    }
    out += ')';
}

void
write_stmts(const std::vector<StmtRef>& stmts, std::string& out);

void
write_stmt(const Stmt& s, std::string& out)
{
    switch (s.kind) {
      case Stmt::Kind::kStore:
        out += "(store ";
        out += s.array.str();
        out += ' ';
        write_int(s.index, out);
        out += ' ';
        write_float(*s.value, out);
        out += ')';
        return;
      case Stmt::Kind::kFor:
        out += "(for ";
        out += s.loop_var.str();
        out += ' ';
        write_int(s.lo, out);
        out += ' ';
        write_int(s.hi, out);
        write_stmts(s.body, out);
        out += ')';
        return;
      case Stmt::Kind::kIf:
        out += "(if-else ";
        write_cond(*s.cond, out);
        out += " (then";
        write_stmts(s.body, out);
        out += ") (else";
        write_stmts(s.else_body, out);
        out += "))";
        return;
      case Stmt::Kind::kBlock:
        out += "(block";
        write_stmts(s.body, out);
        out += ')';
        return;
    }
}

void
write_stmts(const std::vector<StmtRef>& stmts, std::string& out)
{
    for (const StmtRef& s : stmts) {
        out += ' ';
        write_stmt(*s, out);
    }
}

}  // namespace

std::string
kernel_source_text(const diospyros::scalar::Kernel& kernel,
                   const std::string& name)
{
    std::string out = "(kernel " + name;
    for (const auto& [symbol, value] : kernel.params) {
        out += " (param " + symbol.str() + ' ' + std::to_string(value) + ')';
    }
    for (const ArrayDecl& decl : kernel.arrays) {
        out += decl.role == ArrayRole::kInput    ? " (input "
               : decl.role == ArrayRole::kOutput ? " (output "
                                                 : " (scratch ";
        out += decl.name.str();
        out += ' ';
        write_int(decl.size, out);
        out += ')';
    }
    write_stmts(kernel.body, out);
    out += ')';
    return out;
}

}  // namespace perfbench
