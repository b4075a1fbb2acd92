// The staged compiler front end, one span per stage, and the counter
// program shared by the fleets and the serve sessions.
#include <stdexcept>

#include "bench.hpp"
#include "codegen/flatten.hpp"
#include "lexer/lexer.hpp"
#include "parser/parser.hpp"
#include "sema/sema.hpp"
#include "util/source.hpp"

namespace perfbench {

using namespace ceu;

const char* const kCounterSource = R"(
input int ADD;
input void STOP;
int total = 0;
int v = 0;
par do
   loop do
      v = await ADD;
      total = total + v;
   end
with
   await STOP;
   return total;
end
)";

std::shared_ptr<const flat::CompiledProgram> compile_program(const std::string& source,
                                                             size_t* tokens) {
    auto cp = std::make_shared<flat::CompiledProgram>();
    Diagnostics diags;
    std::vector<Token> toks;
    {
        Span s("lexer.lex");
        toks = lex(SourceFile("<memory>", source), diags);
    }
    if (tokens != nullptr) *tokens = toks.size();
    if (diags.ok()) {
        Span s("parser.parse");
        cp->ast = parse(std::move(toks), diags);
    }
    if (diags.ok()) {
        Span s("sema.analyze");
        cp->sema = analyze(cp->ast, diags);
    }
    if (diags.ok()) {
        Span s("codegen.flatten");
        cp->flat = flat::flatten(cp->ast, cp->sema, diags);
    }
    if (!diags.ok()) throw std::runtime_error("compile error: " + diags.str());
    return cp;
}

}  // namespace perfbench
