#include "core/checks.h"

#include "common/logging.h"

namespace camj
{

void
checkAnalogDomains(const std::vector<const AnalogArray *> &chain)
{
    if (chain.empty())
        fatal(Rule::E009, "checkAnalogDomains: empty analog chain");
    for (const AnalogArray *a : chain) {
        if (!a)
            panic("checkAnalogDomains: null array in chain");
    }

    for (size_t i = 0; i + 1 < chain.size(); ++i) {
        SignalDomain out = chain[i]->outputDomain();
        SignalDomain in = chain[i + 1]->inputDomain();
        if (out != in) {
            fatal(Rule::E010,
                  "analog chain: '%s' outputs %s but '%s' consumes "
                  "%s; insert a %s-to-%s conversion component",
                  chain[i]->name().c_str(), signalDomainName(out),
                  chain[i + 1]->name().c_str(), signalDomainName(in),
                  signalDomainName(out), signalDomainName(in));
        }
    }
}

void
checkAnalogThroughput(const std::vector<const AnalogArray *> &chain)
{
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
        const AnalogArray *prod = chain[i];
        const AnalogArray *cons = chain[i + 1];
        int64_t produced = prod->outputShape().count();
        int64_t consumed = cons->inputShape().count();
        if (produced == consumed)
            continue;
        if (cons->inputDomain() == SignalDomain::Voltage) {
            // Footnote 1: the consumer's input capacitance acts as an
            // inherent analog buffer.
            warn("analog chain: throughput mismatch %s ('%s') -> %s "
                 "('%s') buffered by the consumer's inherent "
                 "capacitance",
                 prod->outputShape().str().c_str(),
                 prod->name().c_str(),
                 cons->inputShape().str().c_str(),
                 cons->name().c_str());
            continue;
        }
        fatal(Rule::E011,
              "analog chain: '%s' produces %s per step but '%s' "
              "consumes %s; insert an analog buffer between them",
              prod->name().c_str(), prod->outputShape().str().c_str(),
              cons->name().c_str(), cons->inputShape().str().c_str());
    }
}

void
checkAdcBoundary(const std::vector<const AnalogArray *> &chain)
{
    if (chain.empty())
        fatal(Rule::E009, "checkAdcBoundary: empty analog chain");
    const AnalogArray *last = chain.back();
    if (last->outputDomain() != SignalDomain::Digital) {
        fatal(Rule::E010,
              "analog chain: final array '%s' outputs %s; an ADC (or "
              "comparator) must sit between the analog and digital "
              "domains", last->name().c_str(),
              signalDomainName(last->outputDomain()));
    }
}

} // namespace camj
