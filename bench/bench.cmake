# Benchmark harness binaries: one per paper table / figure and
# ablation. Every binary in ${CMAKE_BINARY_DIR}/bench runs unattended
# and prints the rows the paper reports. Host speed is measured by the
# repository benchmark in benchmark/, not here.

function(mach_bench name)
    add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/${name}.cc)
    target_link_libraries(${name} PRIVATE mach)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mach_bench(fig2_basic_cost)
mach_bench(table2_kernel_shootdowns)
mach_bench(table1_lazy_eval)
mach_bench(table3_user_shootdowns)
mach_bench(table4_responders)
mach_bench(validation_perturbation)
mach_bench(scaling_extrapolation)
mach_bench(hw_ablations)
mach_bench(strategy_comparison)
mach_bench(pool_restructuring)
mach_bench(ipi_crossover)
mach_bench(policy_ablations)
mach_bench(virtual_cache)
mach_bench(numa_ablations)
mach_bench(serving_slo)
mach_bench(device_ablations)
