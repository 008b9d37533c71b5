/** @file Kernel -> `.ksp` source text (see ksp_text.cpp). */
#pragma once

#include <string>

#include "scalar/ast.h"

namespace perfbench {

/** Source text that `scalar::parse_kernel` reads back as `kernel`, renamed. */
std::string kernel_source_text(const diospyros::scalar::Kernel& kernel,
                               const std::string& name);

}  // namespace perfbench
