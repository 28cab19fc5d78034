/**
 * @file
 * Experiment C5: protection granularity decoupled from translation
 * granularity (Section 4.3).
 *
 *  - Super-pages: one PLB entry maps a whole aligned segment, so
 *    segment-heavy working sets need far fewer entries and miss less
 *    (also "alleviating the duplication problem for shared
 *    segments").
 *  - Sub-pages: 128-byte protection blocks (the 801's lock granule)
 *    eliminate the false sharing that page-grain locks suffer; this
 *    is exercised directly against the PLB structure with a
 *    synthetic lock map.
 */

#include "bench_common.hh"

#include <map>
#include <set>

using namespace sasos;

namespace
{

/** PLB occupancy/misses for a multi-segment working set, with and
 * without super-page entries. */
void
printSuperPageTable(const Options &options)
{
    bench::printHeader(
        "C5a: super-page PLB entries (one entry per segment)",
        "\"For these segments, a single PLB entry could map the "
        "entire region, regardless of the number of physical pages it "
        "spans.\"");

    TextTable table({"segments x pages", "plb mode", "entries used",
                     "plb misses", "refill cycles"});
    for (u64 segs : {4, 16}) {
        for (bool super : {false, true}) {
            core::SystemConfig config = core::SystemConfig::fromOptions(
                options, core::SystemConfig::plbSystem());
            config.superPagePlb = super;
            if (!super)
                config.plb.sizeShifts = {vm::kPageShift};
            core::System sys(config);
            auto &kernel = sys.kernel();
            const os::DomainId d = kernel.createDomain("app");
            const u64 pages = 32;
            std::vector<vm::VAddr> bases;
            for (u64 s = 0; s < segs; ++s) {
                const vm::SegmentId seg = kernel.createSegment(
                    "s" + std::to_string(s), pages, true);
                kernel.attach(d, seg, vm::Access::ReadWrite);
                bases.push_back(sys.state().segments.find(seg)->base());
            }
            kernel.switchTo(d);
            Rng rng(11);
            for (int r = 0; r < 4000; ++r) {
                const std::size_t s =
                    static_cast<std::size_t>(rng.nextBelow(segs));
                sys.load(bases[s] +
                         rng.nextBelow(pages * vm::kPageBytes));
            }
            auto &plb = sys.plbSystem()->plb();
            table.addRow(
                {TextTable::num(segs) + " x " + TextTable::num(pages),
                 super ? "super-page" : "page-grain",
                 TextTable::num(plb.occupancy()),
                 TextTable::num(plb.misses.value()),
                 TextTable::num(
                     sys.account().byCategory(CostCategory::Refill)
                         .count())});
        }
    }
    table.print(std::cout);
}

/**
 * Sub-page protection: model a lock table over a database page where
 * each 128-byte record is locked by a different transaction. With
 * page-grain protection the records falsely share one protection
 * unit; with 128-byte blocks each lock is exact.
 */
void
printSubPageTable(const Options &options)
{
    (void)options;
    bench::printHeader(
        "C5b: sub-page protection blocks (801-style 128-byte locks)",
        "Two domains hold write locks on different records of the "
        "same page. Page-grain protection cannot express this (every "
        "rights value over- or under-grants); 128-byte blocks can.");

    TextTable table({"granularity", "dom1 own record", "dom1 other's "
                     "record", "exact?"});

    // Page-grain: one entry per (domain, page); granting write on the
    // page lets a domain write the other's record too.
    {
        stats::Group root("bench");
        hw::PlbConfig config;
        config.sizeShifts = {vm::kPageShift};
        hw::Plb plb(config, &root);
        const vm::VAddr page(0x100000);
        plb.insert(1, page, vm::kPageShift, vm::Access::ReadWrite);
        plb.insert(2, page, vm::kPageShift, vm::Access::ReadWrite);
        const auto own = plb.lookup(1, page + 0 * 128);
        const auto other = plb.lookup(1, page + 1 * 128);
        const bool own_w =
            own && vm::includes(own->rights, vm::Access::Write);
        const bool other_w =
            other && vm::includes(other->rights, vm::Access::Write);
        table.addRow({"page (4096 B)", own_w ? "write ok" : "denied",
                      other_w ? "WRITE LEAKS (false sharing)"
                              : "denied",
                      "no"});
    }

    // Sub-page: 128-byte blocks; each domain writes only its record.
    {
        stats::Group root("bench");
        hw::PlbConfig config;
        config.sizeShifts = {7, vm::kPageShift};
        hw::Plb plb(config, &root);
        const vm::VAddr page(0x100000);
        plb.insert(1, page + 0 * 128, 7, vm::Access::ReadWrite);
        plb.insert(2, page + 1 * 128, 7, vm::Access::ReadWrite);
        const auto own = plb.lookup(1, page + 0 * 128);
        const auto other = plb.lookup(1, page + 1 * 128);
        const bool own_w =
            own && vm::includes(own->rights, vm::Access::Write);
        const bool other_w =
            other && vm::includes(other->rights, vm::Access::Write);
        table.addRow({"sub-page (128 B)", own_w ? "write ok" : "denied",
                      other_w ? "WRITE LEAKS" : "denied (exact)",
                      "yes"});
    }
    table.print(std::cout);
}

/** Entry-count accounting: locks per PLB capacity at each granule. */
void
printLockDensityTable(const Options &options)
{
    (void)options;
    bench::printHeader(
        "C5c: lock granularity vs PLB occupancy",
        "A transaction locking N 128-byte records needs one sub-page "
        "entry per record but touches fewer protection units when "
        "records cluster; page-grain needs one entry per touched "
        "page but cannot isolate records.");

    TextTable table({"records locked", "records/page", "sub-page entries",
                     "page entries", "falsely shared pages"});
    Rng rng(13);
    for (u64 records : {8, 32, 128}) {
        for (u64 per_page : {1, 8, 32}) {
            // Place `records` locks, `per_page` of them per page.
            std::set<u64> pages;
            u64 shared_pages = 0;
            std::map<u64, u64> per_page_count;
            for (u64 r = 0; r < records; ++r) {
                const u64 page = r / per_page;
                ++per_page_count[page];
                pages.insert(page);
            }
            for (const auto &[page, count] : per_page_count) {
                if (count > 1)
                    ++shared_pages;
            }
            table.addRow({TextTable::num(records),
                          TextTable::num(per_page),
                          TextTable::num(records),
                          TextTable::num(pages.size()),
                          TextTable::num(shared_pages)});
        }
    }
    table.print(std::cout);
    std::cout << "falsely shared pages are where page-grain locking "
                 "serializes independent transactions (the 801's "
                 "motivation for 128-byte lock bits).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printSuperPageTable(options);
        printSubPageTable(options);
        printLockDensityTable(options);
        return 0;
    });
}
