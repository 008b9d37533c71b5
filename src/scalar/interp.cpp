#include "scalar/interp.h"

#include <cmath>

#include "support/error.h"

namespace diospyros::scalar {

std::int64_t
eval_int(const IntExpr& e,
         const std::unordered_map<Symbol, std::int64_t>& env)
{
    switch (e.kind) {
      case IntExpr::Kind::kConst:
        return e.value;
      case IntExpr::Kind::kVar: {
        auto it = env.find(e.var);
        DIOS_CHECK(it != env.end(),
                   "unbound integer variable: " + e.var.str());
        return it->second;
      }
      case IntExpr::Kind::kAdd:
        return eval_int(*e.a, env) + eval_int(*e.b, env);
      case IntExpr::Kind::kSub:
        return eval_int(*e.a, env) - eval_int(*e.b, env);
      case IntExpr::Kind::kMul:
        return eval_int(*e.a, env) * eval_int(*e.b, env);
    }
    DIOS_ASSERT(false, "unhandled IntExpr kind");
}

bool
eval_cond(const Cond& c, const std::unordered_map<Symbol, std::int64_t>& env)
{
    switch (c.kind) {
      case Cond::Kind::kLt:
        return eval_int(*c.x, env) < eval_int(*c.y, env);
      case Cond::Kind::kLe:
        return eval_int(*c.x, env) <= eval_int(*c.y, env);
      case Cond::Kind::kGt:
        return eval_int(*c.x, env) > eval_int(*c.y, env);
      case Cond::Kind::kGe:
        return eval_int(*c.x, env) >= eval_int(*c.y, env);
      case Cond::Kind::kEq:
        return eval_int(*c.x, env) == eval_int(*c.y, env);
      case Cond::Kind::kNe:
        return eval_int(*c.x, env) != eval_int(*c.y, env);
      case Cond::Kind::kAnd:
        return eval_cond(*c.c1, env) && eval_cond(*c.c2, env);
      case Cond::Kind::kOr:
        return eval_cond(*c.c1, env) || eval_cond(*c.c2, env);
      case Cond::Kind::kNot:
        return !eval_cond(*c.c1, env);
    }
    DIOS_ASSERT(false, "unhandled Cond kind");
}

std::int64_t
array_length(const Kernel& kernel, const ArrayDecl& decl)
{
    std::unordered_map<Symbol, std::int64_t> env;
    for (const auto& [sym, value] : kernel.params) {
        env.emplace(sym, value);
    }
    const std::int64_t n = eval_int(*decl.size, env);
    DIOS_CHECK(n > 0, "array " + decl.name.str() + " has non-positive size");
    return n;
}

std::vector<std::pair<std::string, std::int64_t>>
output_manifest(const Kernel& kernel)
{
    std::vector<std::pair<std::string, std::int64_t>> manifest;
    for (const ArrayDecl& decl : kernel.arrays_with_role(ArrayRole::kOutput)) {
        manifest.emplace_back(decl.name.str(), array_length(kernel, decl));
    }
    return manifest;
}

namespace {

class Interpreter {
  public:
    Interpreter(const Kernel& kernel, const BufferMap& inputs,
                const FunctionMap& functions)
        : kernel_(kernel), functions_(functions)
    {
        for (const auto& [sym, value] : kernel.params) {
            env_.emplace(sym, value);
        }
        for (const ArrayDecl& decl : kernel.arrays) {
            const auto n =
                static_cast<std::size_t>(array_length(kernel, decl));
            if (decl.role == ArrayRole::kInput) {
                auto it = inputs.find(decl.name.str());
                DIOS_CHECK(it != inputs.end(),
                           "missing input array: " + decl.name.str());
                DIOS_CHECK(it->second.size() == n,
                           "input " + decl.name.str() + " has wrong size");
                buffers_.emplace(decl.name, it->second);
            } else {
                buffers_.emplace(decl.name, std::vector<float>(n, 0.0f));
            }
        }
    }

    BufferMap
    run()
    {
        for (const StmtRef& s : kernel_.body) {
            exec(*s);
        }
        BufferMap out;
        for (const ArrayDecl& decl : kernel_.arrays) {
            if (decl.role == ArrayRole::kOutput) {
                out.emplace(decl.name.str(), buffers_.at(decl.name));
            }
        }
        return out;
    }

  private:
    float&
    cell(Symbol array, const IntExpr& index)
    {
        auto it = buffers_.find(array);
        DIOS_CHECK(it != buffers_.end(),
                   "kernel reads undeclared array: " + array.str());
        const std::int64_t i = eval_int(index, env_);
        DIOS_CHECK(i >= 0 && i < static_cast<std::int64_t>(
                                     it->second.size()),
                   "index out of bounds on array " + array.str());
        return it->second[static_cast<std::size_t>(i)];
    }

    float
    eval(const FloatExpr& e)
    {
        switch (e.kind) {
          case FloatExpr::Kind::kConst:
            return static_cast<float>(e.value.to_double());
          case FloatExpr::Kind::kLoad:
            return cell(e.array, *e.index);
          case FloatExpr::Kind::kAdd:
            return eval(*e.args[0]) + eval(*e.args[1]);
          case FloatExpr::Kind::kSub:
            return eval(*e.args[0]) - eval(*e.args[1]);
          case FloatExpr::Kind::kMul:
            return eval(*e.args[0]) * eval(*e.args[1]);
          case FloatExpr::Kind::kDiv:
            return eval(*e.args[0]) / eval(*e.args[1]);
          case FloatExpr::Kind::kNeg:
            return -eval(*e.args[0]);
          case FloatExpr::Kind::kSqrt:
            return std::sqrt(eval(*e.args[0]));
          case FloatExpr::Kind::kSgn: {
            const float x = eval(*e.args[0]);
            return static_cast<float>((x > 0.0f) - (x < 0.0f));
          }
          case FloatExpr::Kind::kCall: {
            auto it = functions_.find(e.fn.str());
            DIOS_CHECK(it != functions_.end(),
                       "no semantics for user function: " + e.fn.str());
            std::vector<float> args;
            args.reserve(e.args.size());
            for (const FloatRef& a : e.args) {
                args.push_back(eval(*a));
            }
            return it->second(args);
          }
        }
        DIOS_ASSERT(false, "unhandled FloatExpr kind");
    }

    void
    exec(const Stmt& s)
    {
        switch (s.kind) {
          case Stmt::Kind::kStore: {
            const float v = eval(*s.value);
            cell(s.array, *s.index) = v;
            return;
          }
          case Stmt::Kind::kFor: {
            const std::int64_t lo = eval_int(*s.lo, env_);
            const std::int64_t hi = eval_int(*s.hi, env_);
            for (std::int64_t i = lo; i < hi; ++i) {
                env_[s.loop_var] = i;
                for (const StmtRef& c : s.body) {
                    exec(*c);
                }
            }
            env_.erase(s.loop_var);
            return;
          }
          case Stmt::Kind::kIf: {
            const auto& branch =
                eval_cond(*s.cond, env_) ? s.body : s.else_body;
            for (const StmtRef& c : branch) {
                exec(*c);
            }
            return;
          }
          case Stmt::Kind::kBlock:
            for (const StmtRef& c : s.body) {
                exec(*c);
            }
            return;
        }
    }

    const Kernel& kernel_;
    const FunctionMap& functions_;
    std::unordered_map<Symbol, std::int64_t> env_;
    std::unordered_map<Symbol, std::vector<float>> buffers_;
};

}  // namespace

BufferMap
run_reference(const Kernel& kernel, const BufferMap& inputs,
              const FunctionMap& functions)
{
    Interpreter interp(kernel, inputs, functions);
    return interp.run();
}

}  // namespace diospyros::scalar
