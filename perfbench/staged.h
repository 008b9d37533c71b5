/**
 * @file
 * Staged replay of one compile for the traced runs.
 *
 * The replay makes the same public calls, in the same order, that the
 * compiler driver's pipeline (`compile_kernel`) makes — lift, pad,
 * saturate, extract, lower, LVN, layout, emit/schedule, the analysis gates
 * when enabled, Fusion C printing, validation — with one child span per
 * call under a parent compile span. src/compiler/driver.cpp is not
 * modified, so the replay can drift from it if the pipeline is reordered;
 * `replay_mismatch` compares the replay's artifacts against
 * `compile_kernel`'s, and the traced run reports any case that differs
 * instead of timing a different pipeline.
 */
#pragma once

#include <string>

#include "compiler/driver.h"
#include "trace.h"

namespace perfbench {

/**
 * Compiles `kernel` stage by stage. Spans are children of `parent`;
 * raises the pipeline's exceptions (an analysis gate failing raises
 * InternalError, as `compile_kernel` does).
 */
CompiledKernel staged_compile(const scalar::Kernel& kernel,
                              CompilerOptions options, Tracer& tracer,
                              int parent, std::uint64_t request);

/**
 * Empty when `staged` and `reference` carry byte-identical machine
 * programs and Fusion C text and the same e-graph and extraction counts;
 * otherwise what differs.
 */
std::string replay_mismatch(const CompiledKernel& staged,
                            const CompiledKernel& reference, int width);

}  // namespace perfbench
