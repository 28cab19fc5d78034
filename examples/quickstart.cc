/**
 * @file
 * Quickstart: build a PLB machine, create two protection domains that
 * share a segment in the single address space, and watch what a
 * domain switch and a protection fault cost.
 *
 * Run: ./quickstart [model=plb|pg|conv|pkey] [key=value ...]
 */

#include <cstdio>
#include <iostream>

#include "sasos.hh"

using namespace sasos;

int
main(int argc, char **argv)
{
    Options options;
    options.parseArgs(argc, argv);
    const core::SystemConfig config = core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem());

    std::printf("sasos quickstart: %s model\n", toString(config.model));

    core::System sys(config);
    auto &kernel = sys.kernel();

    // Two protection domains in one 64-bit address space.
    const os::DomainId alice = kernel.createDomain("alice");
    const os::DomainId bob = kernel.createDomain("bob");

    // A shared segment: same virtual addresses in both domains, so
    // pointers stored inside it mean the same thing to both.
    const vm::SegmentId shared = kernel.createSegment("shared-heap", 16);
    kernel.attach(alice, shared, vm::Access::ReadWrite);
    kernel.attach(bob, shared, vm::Access::Read); // bob may only read

    const vm::VAddr base = sys.state().segments.find(shared)->base();

    // Alice writes a linked structure into the shared heap.
    kernel.switchTo(alice);
    for (u64 i = 0; i < 16; ++i)
        sys.store(base + i * vm::kPageBytes);
    std::printf("alice wrote 16 pages at 0x%lx\n",
                static_cast<unsigned long>(base.raw()));

    // Bob reads it through the *same* addresses -- no remapping, no
    // marshaling; this is the point of a single address space.
    kernel.switchTo(bob);
    for (u64 i = 0; i < 16; ++i)
        sys.load(base + i * vm::kPageBytes);
    std::printf("bob read the same 16 pages by the same addresses\n");

    // But protection still holds: bob cannot write.
    const bool wrote = sys.store(base);
    std::printf("bob's store was %s\n", wrote ? "ALLOWED (bug!)"
                                              : "denied by hardware");

    // Domain switches are cheap in a single address space system.
    const Cycles before = sys.account().byCategory(
        CostCategory::DomainSwitch);
    for (int i = 0; i < 100; ++i)
        kernel.switchTo(i % 2 == 0 ? alice : bob);
    const Cycles after = sys.account().byCategory(
        CostCategory::DomainSwitch);
    std::printf("100 domain switches cost %lu cycles (%.1f each)\n",
                static_cast<unsigned long>(after.count() - before.count()),
                (after.count() - before.count()) / 100.0);

    std::printf("\n--- statistics ---\n");
    sys.dumpStats(std::cout);
    return 0;
}
