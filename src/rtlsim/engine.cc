#include "rtlsim/engine.hh"

#include "base/logging.hh"

namespace fireaxe::rtlsim {

const char *
toString(EvalEngine engine)
{
    switch (engine) {
      case EvalEngine::Interpret:
        return "interpret";
      case EvalEngine::Compiled:
        return "compiled";
    }
    return "?";
}

EvalEngine
parseEvalEngine(const std::string &name)
{
    if (name == "interpret" || name == "interpreter")
        return EvalEngine::Interpret;
    if (name == "compiled" || name == "compile")
        return EvalEngine::Compiled;
    fatal("unknown eval engine '", name,
          "' (expected 'interpret' or 'compiled')");
}

} // namespace fireaxe::rtlsim
