/**
 * @file
 * Writing a custom user-level segment server -- the library's main
 * extension point, and Opal's: "user-level segment servers ...
 * control the semantics and the protection for each segment"
 * (paper Section 6).
 *
 * This example builds a *guarded log* segment: any domain may append
 * (fault -> the server grants write access to exactly one record
 * page at a time, revoking the previous one), but nothing may be
 * overwritten (writes to already-sealed pages are refused). The same
 * server code runs unchanged on all three protection architectures;
 * what changes underneath is which hardware structures the rights
 * flips touch.
 *
 * Run: ./segment_server [model=plb|pg|conv|pkey] [appends=N]
 */

#include <cstdio>
#include <iostream>

#include "sasos.hh"

using namespace sasos;

namespace
{

/** Append-only log discipline enforced with page protection. */
class AppendOnlyLogServer : public os::SegmentServer
{
  public:
    AppendOnlyLogServer(vm::Vpn first, u64 pages)
        : first_(first), pages_(pages)
    {
    }

    bool
    onProtectionFault(os::Kernel &kernel, os::DomainId domain,
                      vm::VAddr va, vm::AccessType type) override
    {
        const vm::Vpn vpn = vm::pageOf(va);
        if (type != vm::AccessType::Store)
            return false; // reads were already granted at attach
        const u64 index = vpn.number() - first_.number();
        if (index != sealed_) {
            // Not the current tail: either sealed history (refuse) or
            // a skip ahead (also refuse -- appends are in order).
            ++refusals_;
            return false;
        }
        // Grant the writer the tail page, revoking the previous
        // writer if the tail changed hands.
        if (writer_ != 0 && writer_ != domain)
            kernel.setPageRights(writer_, vpn, vm::Access::Read);
        kernel.setPageRights(domain, vpn, vm::Access::ReadWrite);
        writer_ = domain;
        ++grants_;
        return true;
    }

    /** The writer finished a record: seal the page for everyone. */
    void
    seal(os::Kernel &kernel)
    {
        if (writer_ == 0)
            return;
        const vm::Vpn tail(first_.number() + sealed_);
        kernel.setPageRights(writer_, tail, vm::Access::Read);
        writer_ = 0;
        ++sealed_;
    }

    u64 sealedPages() const { return sealed_; }
    u64 grants() const { return grants_; }
    u64 refusals() const { return refusals_; }

  private:
    vm::Vpn first_;
    u64 pages_;
    u64 sealed_ = 0;
    os::DomainId writer_ = 0;
    u64 grants_ = 0;
    u64 refusals_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.parseArgs(argc, argv);
    const core::SystemConfig config = core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem());
    const u64 appends = options.getU64("appends", 24);

    std::printf("append-only log served by a user-level segment server "
                "(%s model)\n",
                toString(config.model));

    core::System sys(config);
    auto &kernel = sys.kernel();

    const os::DomainId alice = kernel.createDomain("alice");
    const os::DomainId bob = kernel.createDomain("bob");

    const u64 log_pages = appends + 1;
    const vm::SegmentId log = kernel.createSegment("log", log_pages);
    // Everyone can read the log; nobody can write until the server
    // says so.
    kernel.attach(alice, log, vm::Access::Read);
    kernel.attach(bob, log, vm::Access::Read);

    const vm::Segment *seg = sys.state().segments.find(log);
    AppendOnlyLogServer server(seg->firstPage, log_pages);
    kernel.setSegmentServer(log, &server);
    const vm::VAddr base = seg->base();

    // Alice and Bob take turns appending records.
    for (u64 record = 0; record < appends; ++record) {
        const os::DomainId writer = record % 2 == 0 ? alice : bob;
        kernel.switchTo(writer);
        const vm::VAddr tail = base + record * vm::kPageBytes;
        const bool wrote = sys.store(tail); // faults; server grants
        SASOS_ASSERT(wrote, "append should have been granted");
        server.seal(kernel); // record complete; page becomes history
    }

    // History is immutable, for writers and readers alike.
    kernel.switchTo(alice);
    const bool tampered = sys.store(base); // first record, sealed
    const bool readable = sys.load(base);

    std::printf("\nappended %lu records (alice and bob alternating)\n",
                static_cast<unsigned long>(server.sealedPages()));
    std::printf("write grants:   %lu\n",
                static_cast<unsigned long>(server.grants()));
    std::printf("tamper attempt: %s\n",
                tampered ? "SUCCEEDED (bug!)" : "refused by the server");
    std::printf("history reads:  %s\n",
                readable ? "allowed" : "broken (bug!)");
    std::printf("server refusals: %lu\n",
                static_cast<unsigned long>(server.refusals()));

    std::printf("\ncycle breakdown:\n");
    sys.account().dump(std::cout, "  ");
    return tampered || !readable;
}
