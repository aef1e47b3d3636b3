"""Classical Riemann zeta machinery.

zeta comes from two routes:

* `_euler_maclaurin` — the Dirichlet sum to N = 16 + 1.5 |Im s| terms plus
  Bernoulli corrections; `zeta_series` is this sum for Re s > 1;
* `_theta_route` — the theta-integral continuation

      pi^{-s/2} Gamma(s/2) zeta(s)
          = 1/(s(s-1)) + integral_1^inf psi(x)(x^{(s-2)/2} + x^{-(s+1)/2}) dx,

  valid on all of C minus s = 1. Written with reciprocal gammas,

      zeta(s) = pi^{s/2} [ rgamma(s/2 + 1) / (2(s-1)) + rgamma(s/2) I(s) ],

  which makes zeta(0) = -1/2 and the trivial zeros exact (rgamma vanishes at
  the right spots) instead of 0*inf fights.

`zeta_analytic` takes the theta route only for Re s < 1/2, |Im s| <= 10, and
the sum everywhere else, so of s and 1 - s at most one takes the integral:
on 1/2 <= Re s < 1 the sum costs 0.012 ms a call against the integral's
0.135 ms (medians over 170 points with |Im s| <= 10, on a 2-vCPU x86 host),
within 5.1e-15 relative of mpmath.  Bare zeta from the integral divides by
Gamma(s/2) ~ e^{-pi|t|/4}: the 1e-18 absolute noise in 1/(s(s-1)) + I(s)
is amplified by e^{pi|t|/4}, seven digits lost at t = 40, so past
|Im s| = 10 the sum takes over at every Re s, reflected through chi left of
Re s = -2, and the extended coefficient table keeps it near machine
accuracy.  Right of Re s = 1 the sum is also the closer (zeta(20): exact in
0.01 ms against 3.3e-15 in 1 ms), and x^{(s-2)/2} in the integral overflows
from s = 290 on.

On top of those: the chi factor of the asymmetric functional equation, the
entire xi function, Hardy's Z, and a sign-scan zero finder on the critical
line.

Hardy's Z comes from the Riemann-Siegel formula at |t| >= 100: about
sqrt(t / 2 pi) terms plus Gabcke's remainder series C_0..C_12, against
16 + 1.5 t terms for Euler-Maclaurin.  Its phases theta(t) - t log n, of
size t log t, are exact fixed-point integers reduced mod 2 pi, so the value
is good to ~1e-15 at any height up to the term ceiling (measured to
t = 1e12) and carries a bound of about 2e-14 + 2.2e-15 |Z| at every height.
Below t = 100, `hardy_z` is e^{i theta} times the Euler-Maclaurin sum.

The zero finder reads Z's sign, on its grid and in its refinement steps
alike, from the Riemann-Siegel main sum alone where the remainder cannot
flip it, else from a float Riemann-Siegel sum with C_0..C_4 wherever that
clears its bound; every other point and both ends of every bracket read
`hardy_z`.  The brackets are therefore those of an all-`hardy_z` scan, and
each refined zero lies between two points whose signs are certified.

The Euler-Maclaurin Dirichlet sum runs over a table of log n kept for the
life of the process, term for term the float operations of
`power_real_base`.
"""

from __future__ import annotations

import cmath
import math
import sys
from array import array
from itertools import islice

from .errors import DomainError, NonConvergence, PoleError
from .gammafn import _log_sin, log_gamma_complex, power_real_base, rgamma
from .quadrature import integrate_powers
from .theta import PSI_REACH, psi_rows
from .types import (DEFAULT_QUAD, EvalResult, QuadratureSpec, ZeroBracket,
                    make_result)

_LOG_PI = math.log(math.pi)
_LOG_TWO = math.log(2.0)
_LOG_TWO_PI = math.log(2.0 * math.pi)
_EPS = sys.float_info.epsilon

# B_{2k}/(2k)! for the Euler-Maclaurin tail
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
    43867.0 / 5109094217170944000.0,
    -174611.0 / 802857662698291200000.0,
    77683.0 / 14101100039391805440000.0,
    -236364091.0 / 1693824136731743669452800000.0,
)

# Riemann-Siegel remainder coefficients C_0..C_12 (Gabcke 1979) as power
# series in y = (p - 1/2)^2, highest power first, p = frac(sqrt(t / 2 pi));
# the odd orders carry one more factor p - 1/2.  The reversed rows of
# tests/oracles.py:rs_coefficient_tables (Arias de Reyna's recursion in exact
# series arithmetic in mpmath); dropped terms are < 1e-20.
_RS_COEFFS = (
    (6.551022819231502e-07, 6.323514947609108e-07, -9.380006601906792e-06,
     -2.3025650027239108e-05, 8.971057991388841e-05, 0.0004006097785422114,
     -0.0004064230183729847, -0.004382647416580339, -0.0022759396706125644,
     0.029999480619902277, 0.051832902999549624, -0.1085784416564066,
     -0.3755803051545095, 0.03051102182736167, 1.3014304161007977,
     1.216731288919232, -1.6626947308999325, -3.4733112243465167,
     -0.8707216670511481, 2.118025207685496, 1.7489618723100817,
     0.3826834323650898),
    (4.0907807608506065e-07, 3.1936918080068973e-06, -1.8539355338085133e-06,
     -4.7624592453571896e-05, -3.956359669003182e-05, 0.0005010949051118486,
     0.0010410950537714891, -0.003399503721151274, -0.012582979651583417,
     0.01044923755006451, 0.09092026610973176, 0.03747264646531532,
     -0.38450723496057976, -0.5054829667900366, 0.7838423561500687,
     1.9407662946212714, -0.10819944959899208, -2.9998711967650102,
     -1.695108997559503, 1.2634964862799458, 1.2317200154315227,
     0.11027818741081483, -0.053650205256750697),
    (2.0087542484759946e-06, 7.821628604322627e-06, -1.83135074047892e-05,
     -0.0001230080569819663, 6.41369012029388e-05, 0.0013572194372373386,
     0.0009274149159794888, -0.010225012534028593, -0.017356040641479782,
     0.04782352019827292, 0.14033480067387008, -0.09911649873041208,
     -0.6359068055045431, -0.1722164273472998, 1.5539019430222982,
     1.3689416723328371, -1.6760787022538108, -2.421001595891951,
     0.3522472353403734, 1.3303391766687565, 0.14291492748532125,
     -0.18137505725166997, 0.0012378633552253898, 0.005188542830293168),
    (5.88385492454038e-06, 1.157534381459567e-05, -6.274344504186516e-05,
     -0.00020714032687001792, 0.000437647697741857, 0.0024243969641103086,
     -0.001246463715876929, -0.019264421687514088, -0.009530183848825268,
     0.10073382716626152, 0.12844792545207495, -0.31590441036173633,
     -0.6619353471039775, 0.45968080979749937, 1.7467492800868893,
     0.07845139961005472, -2.249763536666567, -0.8297560708527408,
     1.230855876395746, 0.4888831999235446, -0.28997965779803886,
     -0.042570172541828696, 0.02995372109103515, -0.0026794321814389136),
    (1.2479701645409117e-05, 7.4648603079559195e-06, -0.00014189637118181445,
     -0.00022775966758472127, 0.0011562478934088753, 0.003077503129870841,
     -0.006126628379519262, -0.026098874779194363, 0.01509152741790347,
     0.14431763086785418, 0.03573487795502745, -0.5036663995108304,
     -0.40124095793988546, 1.0257825340057276, 1.235339301656597,
     -1.076747157875129, -1.67634944117634, 0.5341535312914873,
     0.9507754185141751, -0.20854053686358853, -0.19604124343694448,
     0.06581175135809486, 0.003847177051796127, -0.004022642946136188,
     0.00046483389361763383),
    (2.0620785033284237e-05, -1.3697982692283388e-05, -0.00024413466533855272,
     -9.191391945156778e-05, 0.0021193319510877775, 0.0025455574818611633,
     -0.012963672514046178, -0.025612276897007284, 0.051737188455280386,
     0.1521267771179559, -0.11241976368059116, -0.558604047264202,
     0.040936939383115295, 1.229110218540087, 0.32828366427719585,
     -1.5287712641078073, -0.5528257697050813, 1.0344573316495222,
     0.22531987892642316, -0.38058660440806397, 0.02570880200903324,
     0.052765034053987414, -0.016218579255550092, 0.0011081246853718388,
     0.00022686811845737363),
    (2.6966371245797056e-05, -5.891092180278285e-05, -0.0003349691662856058,
     0.0002675580524826069, 0.0030274014208229155, 0.00031650099641031916,
     -0.01961041509857541, -0.014803271886103406, 0.08794868546608423,
     0.11117688993542343, -0.25918493310535273, -0.4414445866526114,
     0.47056716161861106, 0.9962463615472547, -0.5117640855696522,
     -1.2301721808541708, 0.4067440568556812, 0.7612833126395632,
     -0.30393580239679546, -0.1849404122581205, 0.1237587562368654,
     -0.007962052861482919, -0.010636181410824536, 0.0034913041151209494,
     -0.00048730387277374067, 3.369099840108094e-05),
    (2.6456110344191184e-05, -0.00012779454521633608, -0.00036395433452081826,
     0.0008444826314873812, 0.0034648237370005506, -0.0035166634161813027,
     -0.023293443630578295, 0.005308465692352872, 0.10909301099694024,
     0.02925214982106185, -0.3455616621306974, -0.19296662747432222,
     0.7154101522815643, 0.4719558561190385, -0.9482271795820716,
     -0.5178358018314444, 0.8064302485606453, 0.1803375211195864,
     -0.4074596273039508, 0.06355969744063397, 0.07707956741410073,
     -0.03886148551530864, 0.005028543891765806, 0.0010840232068089312,
     -0.00044670409577338735, 6.612479918279905e-05),
    (-0.00020917807822471457, -0.000282016450085498, 0.001535812550622837,
     0.0030590899165112884, -0.008154606200067588, -0.021780178965591507,
     0.029655264579902616, 0.10495507688894251, -0.06840303526873472,
     -0.3377367994776856, 0.09268759838045737, 0.7024752578716655,
     -0.09498217340106974, -0.9023846153142663, 0.17484629360273835,
     0.6603245174239842, -0.2705105627343296, -0.20767893102427126,
     0.16805457215955893, -0.015530804396368813, -0.02392447916109697,
     0.01155263179636765, -0.0023441555503488335, 0.0002171808253299485,
     -1.611352277070405e-05, 2.4197536136117965e-06),
    (-0.0002815677670395356, -6.29096020556182e-05, 0.002157082055276683,
     0.0016481264748153632, -0.012297668068340803, -0.014388505816400662,
     0.050921865966025714, 0.07418116204376772, -0.150105308390526,
     -0.2397340129568678, 0.31505728712887565, 0.4731537582420427,
     -0.4863022480161819, -0.5214374827560175, 0.5548514525057807,
     0.238884035084224, -0.3984619535620612, 0.04895275610619873,
     0.11518596547976107, -0.06487760215296878, 0.007856763175787419,
     0.00521128162812441, -0.002815328661230075, 0.0006961287408707673,
     -0.00010836427024418868, 1.376824100605469e-05),
    (-0.0003180982936548569, 0.00028004946780034576, 0.002494689886531394,
     -0.0006176319463115361, -0.01457863465975384, -0.0023942818571399543,
     0.062285939893110834, 0.024797868560708102, -0.1905302290152115,
     -0.08822689489109546, 0.4090776632630465, 0.14479016030901048,
     -0.6005581196365657, -0.05196110807521286, 0.5595524945513238,
     -0.15371365234913448, -0.25652183258970757, 0.18470186771797276,
     -0.00011394985522762532, -0.04929616638531094, 0.024729580718188874,
     -0.004837981715604847, -0.00026736362667853134, 0.0003909897258050479,
     -0.00010166242807169727, 1.0991501782401885e-05, -2.000102517333251e-07),
    (-0.0002947034080790354, 0.0006894697578080203, 0.002376938716065604,
     -0.0032837592330288968, -0.014047344741411295, 0.011315928354217483,
     0.05990365712445804, -0.029006431991502955, -0.17966097155670455,
     0.06510534404067893, 0.3646663397372364, -0.1510551092580186,
     -0.4667120515588451, 0.29298826246651916, 0.3105943953879576,
     -0.3359536895200065, -0.01942362458094586, 0.16172806405795673,
     -0.07959730639378094, -0.0012712916000469617, 0.01741345863882657,
     -0.008852454011086692, 0.002373048024098571, -0.00038682933931457095,
     4.152717215400545e-05, -6.113233459416969e-06, 2.1165343104016636e-06),
    (-0.00019882814169315202, 0.0010746116648946275, 0.0017378207242639268,
     -0.0057111087746711, -0.010519719402930332, 0.023180684674380204,
     0.04418908774924857, -0.072144964159004, -0.12489360707337975,
     0.17426530948455465, 0.22097087961755799, -0.3219527992056398,
     -0.20005655691806104, 0.4126162192056312, 0.0006517184743767043,
     -0.290409771808611, 0.15220239667306243, 0.04769406016343327,
     -0.08330205498109723, 0.035350140836666516, -0.002126094793297231,
     -0.00463460977680081, 0.00262077286534659, -0.0008212214504547484,
     0.00018477881939289544, -3.163079970682538e-05, 3.451523827064601e-06,
     -1.5083686683859693e-07),
)
# The scan grid's float sum stops after C_4, under `_rs_bound`: row k keeps
# the fewest terms whose dropped tail at |p - 1/2| <= 1/2, times a^(-k-1/2),
# stays below 1% of `_rs_bound(t)` at every t >= 2 pi.
_RS_COEFFS_GRID = tuple(row[-m:] for row, m in
                        zip(_RS_COEFFS, (14, 13, 13, 11, 10)))
# |C_k(p)| on the grid's row k is at most R_k where |p - 1/2| <= 1/2;
# _RS_REACH holds R_4..R_0, highest power of 1/a first.
_RS_REACH = tuple(sum(abs(c) * 0.25 ** j for j, c in enumerate(row[::-1]))
                  / (1 + k % 2) for k, row in enumerate(_RS_COEFFS_GRID))[::-1]
# theta's series sum_k (1 - 2^(1-2k)) |B_2k| / (4k (2k-1)) t^(1-2k) (Edwards,
# 1974), k = 9..1: 6.5e-16 left out at t = 2 pi, below eps |theta|.
_THETA_TAIL = (5749691557 / 64012419072, 118518239 / 8021606400,
               8191 / 2555904, 1414477 / 1476034560, 511 / 1216512,
               127 / 430080, 31 / 80640, 7 / 5760, 1 / 48)

# The scan reads Riemann-Siegel signs from t >= 2 pi (a = sqrt(t / 2 pi) >= 1,
# so the main sum has a term): 0.002-0.005 ms a point to t = 5000, 0.0025 ms
# more with the remainder, against 0.02-0.2 ms for `hardy_z` below t = 100.
_RS_T_MIN = 2.0 * math.pi
# Bound on |Z_RS - Z|: truncation after C_4 (~1e-4 a^(-11/2) measured) plus
# rounding in t log n (~7e-15 t measured), each taken 20 times over.
_RS_TRUNC = 2e-3
_RS_ROUND = 2e-13
# hardy_z takes the Riemann-Siegel sum with fixed-point phases at |t| >= this:
# the lowest height where its bound falls below Euler-Maclaurin's measured
# error.
_HARDY_RS_T_MIN = 100.0
# Bound on that sum's truncation: ten times the first order left out, C_13
# (at most 1.9e-7, times a^(-13.5): 1.4e-15 at t = 100, as measured there);
# `_hardy_rs_bound` adds the rounding.
_RS_FIX_TRUNC = 2e-6
# Fixed point: a phase at t = num / 2^k is an integer times
# 2^-(_FIX_BITS + k).
_FIX_BITS = 128
# 2 pi and log(2 pi) times 2^_FIX_BITS, to the nearest integer.
_TWO_PI_FIX = 2138057168129933495719360746323741566601
_LOG_TWO_PI_FIX = 625397158267482887231032432550145572936
# Width of the sign-change bracket the refinement leaves around each zero.
_ZERO_TOL = 1e-8
# Rosser's rule (Rosser, Yohe and Schoenfeld 1969): a Gram block of k
# intervals holds k zeros.  Its first exception is the block at Gram index
# 13,999,525, t = 6,820,051 (Brent, Math. Comp. 1979), so the scan takes
# Gram blocks below this height only.
_ROSSER_T_MAX = 6.8e6

# With twelve correction terms the remainder carries N^{-(Re s + 23)}, so the
# sum stays usable well left of the critical strip; past that we reflect.
_EM_SIGMA_FLOOR = -2.0


# _LOG_N[n] = log n as a float and _LOG_FIX[n] = log n times 2^_FIX_BITS as
# an integer (entry 0 unused), grown on demand by _log_table and
# _log_fix_table; their entries never change once written, so every caller
# may share them.
_LOG_N = array("d", [0.0])
_LOG_FIX = [0, 0]


def _log_table(n_top: int) -> array:
    """_LOG_N, grown to hold log n for every n <= n_top."""
    logs = _LOG_N
    if len(logs) <= n_top:
        logs.extend(map(math.log, range(len(logs), n_top + 1)))
    return logs


def _log_fix_table(n_top: int) -> list:
    """_LOG_FIX, grown to hold log n for every n <= n_top.

    Entry n is entry n - 1 plus log(n / (n-1)) = 2 atanh(1 / d), d = 2n - 1,
    its series summed in integers with each term floored once, so entries
    run low by at most a few units of 2^-_FIX_BITS a step: 4.9e-33 at
    n = 2^20.
    """
    logs = _LOG_FIX
    total = logs[-1]
    for d in range(2 * len(logs) - 1, 2 * n_top, 2):
        d2 = d * d
        power = (2 << _FIX_BITS) // d       # 2 / d^(2i+1), scaled
        k = 1
        while power:
            total += power // k
            power //= d2
            k += 2
        logs.append(total)
    return logs


def _log_fix(num: int, k: int) -> int:
    """log(num / 2^k) times 2^_FIX_BITS for integers num >= 1 and k.

    num = m 2^e with m within 1/2 of an integer j in [64, 128], so
    log num = e log 2 + log j + 2 atanh(u), u = (num - j 2^e) / (num + j 2^e):
    |u| <= 1/255, so the integer series gains 16 bits a term.
    """
    logs = _log_fix_table(128)
    e = max(num.bit_length() - 7, 0)
    j = (num + ((1 << e) >> 1)) >> e
    d, s = num - (j << e), num + (j << e)
    u = (abs(d) << _FIX_BITS) // s
    u2 = (u * u) >> _FIX_BITS
    power = 2 * u                       # 2 |u|^(2i+1), scaled
    series = 0
    i = 1
    while power:
        series += power // i
        power = (power * u2) >> _FIX_BITS
        i += 2
    return (e - k) * logs[2] + logs[j] + (series if d >= 0 else -series)


def _term_budget(count: float, q: QuadratureSpec, route: str,
                 fixed: int = 0) -> int:
    """fixed + floor(count), the terms a sum at this height takes, if
    q.max_terms allows that many; NonConvergence otherwise.

    Called before a sum runs or a log table grows, so that a height no
    route can serve fails at once instead of filling memory.
    """
    if not count < q.max_terms - fixed + 1:  # nan and inf included
        raise NonConvergence(
            f"{route} needs {fixed + count:.4g} terms at this height, more "
            f"than max_terms = {q.max_terms}")
    return fixed + int(count)


def _dirichlet_sum(n_top: int, w: complex) -> complex:
    """sum_{n=1}^{n_top} n^w for complex w, summed in order of n.

    Each term is exp(w log n), the same float operations as
    `power_real_base(n, w)`, so the sum is bit-equal to a loop over it.
    """
    logs = _log_table(n_top)
    exp = cmath.exp
    total = 0j
    for log_n in islice(logs, 1, n_top + 1):
        total += exp(w * log_n)
    return total


def _sum_rounding(n_top: int, s: complex) -> float:
    """The rounding of `_dirichlet_sum(n_top, -s)` that `_euler_maclaurin`
    adds to its last Bernoulli term: eps |t| sqrt(sum_{n=2}^N
    (n^-sigma log n)^2), N = n_top, as each phase t log n is off by eps t log n
    and the terms' errors add like a random walk, plus each term's own
    rounding, 2 eps sum_{n <= N} n^-sigma, bounded in closed form by
    2 eps (1 + (N^{1-sigma} - 1) / (1 - sigma)), the fraction log N at 1.
    """
    logs, m, squares = _log_table(n_top), -2.0 * s.real, 0.0
    for log_n in islice(logs, 2, n_top + 1):
        squares += math.exp(m * log_n) * log_n * log_n
    rise, log_top = 1.0 - s.real, logs[n_top]
    terms = 1.0 + (math.expm1(rise * log_top) / rise if rise else log_top)
    return _EPS * (abs(s.imag) * math.sqrt(squares) + 2.0 * terms)


def _euler_maclaurin(s: complex, q: QuadratureSpec) -> EvalResult:
    """zeta(s) by direct sum to N ~ |Im s| plus Bernoulli corrections."""
    n_cut = _term_budget(1.5 * abs(s.imag), q, "Euler-Maclaurin", fixed=16)
    total = _dirichlet_sum(n_cut, -s)

    ninv = power_real_base(n_cut, -s)
    total += ninv * n_cut / (s - 1.0) - 0.5 * ninv

    # correction terms B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}
    rising = s
    scale = ninv * n_cut  # N^{1-s}; each k divides by N^2
    err = abs(ninv)
    n2 = float(n_cut * n_cut)
    for k, c in enumerate(_EM_COEFFS, start=1):
        scale = scale / n2
        term = c * rising * scale
        new_err = abs(term)
        if new_err > err and k > 1:
            break  # asymptotic turnaround; keep the smaller bound
        total += term
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        err = new_err
        if new_err < 1e-18 * abs(total):
            break
    # floored at 10 eps |value|: right of Re s = 1 the error reaches about
    # 3 eps |zeta| where the terms alone read less
    return make_result(total, max(err + _sum_rounding(n_cut, s),
                                  10.0 * _EPS * abs(total)),
                       n_cut + len(_EM_COEFFS), q)


def zeta_series(s: complex, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """zeta(s) for Re s > 1 by direct sum plus Euler-Maclaurin tail."""
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError(f"zeta_series needs Re s > 1, got {s!r}")
    return _euler_maclaurin(s, q)


def _tail_integral(s: complex, q: QuadratureSpec) -> EvalResult:
    """I(s) = integral_1^inf psi(x) (x^{(s-2)/2} + x^{-(s+1)/2}) dx.

    Manifestly symmetric under s -> 1-s; decays like e^{-pi x}, so the
    half-line engine sees an entire, rapidly vanishing integrand, exactly 0
    past psi's reach, where its nodes are skipped.  One `integrate_powers`
    walk of (1, inf) on psi's column (`theta.psi_rows`) takes both powers:
    value and estimate are the two components' sums, evaluations the
    walk's (the larger component's), converged that of both.
    """
    s = complex(s)
    powers = 0.5 * (s - 2.0), -0.5 * (s + 1.0)
    lo, hi = integrate_powers(psi_rows(q, 1.0), powers, q,
                              (1.0, PSI_REACH), start=1.0)
    return EvalResult(value=lo.value + hi.value,
                      err_estimate=lo.err_estimate + hi.err_estimate,
                      evaluations=max(lo.evaluations, hi.evaluations),
                      converged=lo.converged and hi.converged)


def _theta_route(s: complex, q: QuadratureSpec) -> EvalResult:
    """zeta(s) from the theta integral, with the prefactor's rounding in
    its estimate; `zeta_analytic` takes it for Re s < 1/2, |Im s| <= 10,
    where 1 - s takes Euler-Maclaurin."""
    pis = power_real_base(math.pi, 0.5 * s)
    head = rgamma(0.5 * s + 1.0) / (2.0 * (s - 1.0))
    rg = rgamma(0.5 * s)
    if rg == 0:  # s = 0, -2, ...: skip the tail (it overflows from -264)
        value = pis * (head + rg)  # + rg: pi^{s/2} head alone reads -0.0j
        return make_result(value, _gamma_rounding(s) * abs(value), 0, q)
    tail = _tail_integral(s, q)
    pref = pis * rg  # first: left of Re s ~ -225 rg * tail overflows alone
    value = pis * head + pref * tail.value
    if not cmath.isfinite(value):
        raise OverflowError(f"zeta is past the double range at s = {s}")
    # plus the rounding of the prefactor pi^{s/2} / Gamma(s/2)
    err = abs(pref) * tail.err_estimate + _gamma_rounding(s) * abs(value)
    return make_result(value, err, tail.evaluations, q)


def _gamma_rounding(s: complex) -> float:
    """The relative rounding of pi^{-s/2} Gamma(s/2), Gamma's term as in
    bessel._series_route."""
    half = abs(0.5 * s)
    return 2.0 * _EPS * (4.0 + half * (1.0 + math.log1p(half)))


def zeta_analytic(s: complex, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """zeta(s) everywhere except the pole.

    Theta-integral continuation near the real axis left of Re s = 1/2;
    Euler-Maclaurin for Re s >= 1/2 and once |Im s| > 10 (the module
    docstring says why), reflecting through chi when Re s is far left.
    Euler-Maclaurin takes 16 + 1.5 |Im s| terms, and raises NonConvergence
    when that is more than q.max_terms.
    """
    s = complex(s)
    if abs(s - 1.0) <= 1e-12:
        raise PoleError("zeta has its only pole at s = 1")
    if s.real >= 0.5 or abs(s.imag) > 10.0:
        if s.real >= _EM_SIGMA_FLOOR:
            return _euler_maclaurin(s, q)
        dual = _euler_maclaurin(1.0 - s, q)
        chi = chi_factor(s)
        value = chi * dual.value
        # chi's phase is of size |t| log |t| and good to its rounding
        t = abs(s.imag)
        err = (abs(chi) * dual.err_estimate
               + _EPS * t * math.log(t) * abs(value))
        return make_result(value, err, dual.evaluations, q)
    return _theta_route(s, q)


def chi_factor(s: complex) -> complex:
    """chi(s) = (2 pi)^s / (2 Gamma(s) cos(pi s / 2)), with zeta = chi * zeta(1-s).

    Integer s mixes Gamma poles with cosine zeros; the contract simply rejects
    every integer except the positive even ones (where the formula is plainly
    finite). Some excluded points are removable in the limit, but keeping the
    rule uniform keeps the caller's obligations simple.

    log chi is summed first and exponentiated once: cos(pi s / 2) and
    1/Gamma(s) each overflow once pi |t| / 2 passes ~710, while chi stays of
    modest size.  Re s < 1/2 reflects to
    chi = (2 pi)^s sin(pi s / 2) Gamma(1 - s) / pi, so Lanczos always sees an
    argument with real part >= 1/2.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real == math.floor(s.real):
        n = int(s.real)
        if not (n > 0 and n % 2 == 0):
            raise PoleError(f"chi_factor rejects integer s = {n} "
                            "(Gamma pole or cos zero)")
    if s.real < 0.5:
        log_chi = (_log_sin(0.5 * math.pi * s) + log_gamma_complex(1.0 - s)
                   - _LOG_PI)
    else:
        # cos(pi s / 2) = sin(pi s / 2 + pi / 2)
        log_chi = -(_log_sin(0.5 * math.pi * (s + 1.0)) + log_gamma_complex(s)
                    + _LOG_TWO)
    return cmath.exp(s * _LOG_TWO_PI + log_chi)


def xi_entire(s: complex, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """xi(s) = s(s-1) pi^{-s/2} Gamma(s/2) zeta(s) = 1 + s(s-1) I(s); entire.

    Where a power of x in I(s) overflows (|Re s| past about 260), xi(s) =
    xi(1 - s) is read from its logarithm (`_xi_log_form`).
    """
    s = complex(s)
    try:
        tail = _tail_integral(s, q)
    except OverflowError:
        return _xi_log_form(s if s.real >= 0.5 else 1.0 - s, q)
    pref = s * (s - 1.0)
    body = pref * tail.value
    return make_result(1.0 + body, abs(pref) * tail.err_estimate
                       + _power_rounding(s) * abs(body), tail.evaluations, q)


def _power_rounding(s: complex) -> float:
    """The relative rounding of I(s)'s powers x^{(s-2)/2} and x^{-(s+1)/2}.

    exp(w log x) carries the rounding eps |w log x| of its argument, and the
    integrand is largest near x = |w| / pi, where psi ~ e^{-pi x} meets the
    larger power; the tail's increment holds none of it (1.6e-14 off mpmath
    at s = 260 against an increment of 2.2e-15 relative).
    """
    w = max(abs(0.5 * (s - 2.0)), abs(0.5 * (s + 1.0)))
    return _EPS * w * math.log1p(w / math.pi)


def _xi_log_form(s: complex, q: QuadratureSpec) -> EvalResult:
    """xi(s) = exp(log s(s-1) - (s/2) log pi + log Gamma(s/2) + log zeta(s))
    for Re s >= 1/2, zeta by Euler-Maclaurin right of Re s = 1.

    Against mpmath it is 4.7e-14 off at s = 300 and 1.2e-13 at 400; past
    Re s of about 435 xi leaves the double range and exp raises.
    """
    zeta = zeta_analytic(s, q)
    value = cmath.exp(cmath.log(s * (s - 1.0)) - 0.5 * s * _LOG_PI
                      + log_gamma_complex(0.5 * s) + cmath.log(zeta.value))
    err = abs(value) * (zeta.err_estimate / abs(zeta.value) + _gamma_rounding(s))
    return make_result(value, err, zeta.evaluations, q)


def riemann_siegel_theta(t: float) -> float:
    """Phase theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, odd in t.

    From |t| = 2 pi on (t/2) log(t / 2 pi) - t/2 - pi/8 + the `_THETA_TAIL`
    series + atan(e^(-pi t))/2, that last as e^(-pi t)/2;
    without it the series stops 1.3e-9 off at 2 pi.  Lanczos below 2 pi.
    """
    a = abs(float(t))
    if a < _RS_T_MIN:
        theta = log_gamma_complex(0.25 + 0.5j * a).imag - 0.5 * a * _LOG_PI
    else:
        r = 1.0 / a
        theta = (0.5 * a * (math.log(a / (2.0 * math.pi)) - 1.0) - math.pi / 8.0
                 + r * _poly(_THETA_TAIL, r * r) + 0.5 * math.exp(-math.pi * a))
    return -theta if t < 0.0 else theta


def _poly(coeffs, y: float) -> float:
    """The polynomial in y with coeffs, highest power first, by Horner's rule."""
    total = 0.0
    for c in coeffs:
        total = total * y + c
    return total


def hardy_z(t: float, q: QuadratureSpec = DEFAULT_QUAD) -> EvalResult:
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + it).

    At |t| >= 100 by the Riemann-Siegel formula with its phases in fixed
    point (`_hardy_z_rs`): a real value, the same at -t as at t since Z
    is even, with err_estimate the bound `_hardy_rs_bound` (2.2e-14 at
    t = 100, 1.3e-14 at 1e6, 1.9e-14 at 1e12, each plus 2.2e-15 |Z|).
    Below that, e^{i theta} times `zeta_analytic`, on the critical line
    Euler-Maclaurin at every t; Z is real in exact arithmetic, and the
    imaginary part is kept in the result as an honest noise indicator.
    Z(0) = zeta(1/2) < 0 fixes the branch.  Either route raises
    NonConvergence, before it sums, where it would need more than
    q.max_terms terms (`_term_budget`).
    """
    t = float(t)
    if abs(t) >= _HARDY_RS_T_MIN:
        _term_budget(_rs_length(abs(t)), q, "Riemann-Siegel")
        value, terms = _hardy_z_rs(abs(t))
        return make_result(complex(value), _hardy_rs_bound(abs(t), value),
                           terms, q)
    zv = zeta_analytic(0.5 + 1j * t, q)
    phase = cmath.exp(1j * riemann_siegel_theta(t))
    return EvalResult(value=phase * zv.value, err_estimate=zv.err_estimate,
                      evaluations=zv.evaluations, converged=zv.converged)


def _rs_length(t: float) -> float:
    """sqrt(t / 2 pi): the Riemann-Siegel sum at t has its floor as terms."""
    return math.sqrt(t / (2.0 * math.pi))


def _rs_main(t: float) -> tuple[float, int, float]:
    """a = sqrt(t / 2 pi), N = floor(a), sum_{n <= N} cos(theta - t log n) / sqrt n."""
    a = _rs_length(t)
    n_top = int(a)
    theta = riemann_siegel_theta(t)
    logs = _log_table(n_top)
    main = 0.0
    for n in range(1, n_top + 1):
        main += math.cos(theta - t * logs[n]) / math.sqrt(n)
    return a, n_top, main


def _rs_remainder(a: float, n_top: int, x: float, rows) -> float:
    """(-1)^(N-1) sum_k C_k(p) a^(-k) / sqrt a, N = n_top, x = p - 1/2, by Horner."""
    y, rem, scale = x * x, 0.0, 1.0
    for k, row in enumerate(rows):
        total = 0.0
        for c in row:
            total = total * y + c
        rem += total * (x if k % 2 else 1.0) * scale
        scale /= a
    return (rem if n_top % 2 else -rem) / math.sqrt(a)


def _rs_bound(t: float) -> float:
    """Error bound of Z_RS = 2 `_rs_main` + the grid's remainder, t >= 2 pi."""
    return _RS_TRUNC * (t / (2.0 * math.pi)) ** -2.75 + _RS_ROUND * t


def _theta_fix(num: int, k: int) -> int:
    """theta(t) times 2^(_FIX_BITS + k) for t = num / 2^k >= 100.

    theta = t/2 log(t / 2 pi) - t/2 - pi/8 + the `_THETA_TAIL` series (its
    atan(e^(-pi t))/2 < 1e-136 left out).  Everything but that float tail
    (below 2.1e-4, good to its rounding) is integer arithmetic on `_log_fix`.
    """
    r = 1.0 / math.ldexp(num, -k)
    tail = r * _poly(_THETA_TAIL, r * r)
    return ((num * (_log_fix(num, k) - _LOG_TWO_PI_FIX) >> 1)
            - (num << (_FIX_BITS - 1)) - ((_TWO_PI_FIX << k) >> 4)
            + int(math.ldexp(tail, _FIX_BITS + k)))


def _hardy_z_rs(t: float) -> tuple[float, int]:
    """Z(t) for t >= 100 within `_hardy_rs_bound`, and the terms summed.

    The Riemann-Siegel sum in fixed point: t is num / 2^k exactly, and
    each phase theta(t) - t log n is the integer
    `_theta_fix` - num `_LOG_FIX[n]` at scale 2^-(_FIX_BITS + k), reduced
    mod 2 pi.  Its top 53 bits are hi and the rest lo < 2^-50, so
    cos(hi + lo) = cos hi - lo sin hi to within lo^2 / 2 < 1e-30 at any t.
    a = sqrt(t / 2 pi) is an integer square root, so p - 1/2 is good to
    its rounding.  The terms, the remainder through C_12 among them, are
    added exactly by fsum.
    """
    num, den = t.as_integer_ratio()
    k = den.bit_length() - 1
    scale = _FIX_BITS + k
    a_fix = math.isqrt((num << (3 * _FIX_BITS - k)) // _TWO_PI_FIX)
    n_top = a_fix >> _FIX_BITS
    logs = _log_fix_table(n_top)
    theta = _theta_fix(num, k)
    two_pi = _TWO_PI_FIX << k
    shift = scale - 50
    mask = (1 << shift) - 1
    hi_ulp, lo_ulp = math.ldexp(1.0, -50), math.ldexp(1.0, -scale)
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    terms = []
    for n in range(1, n_top + 1):
        phase = (theta - num * logs[n]) % two_pi
        hi = (phase >> shift) * hi_ulp
        terms.append((cos(hi) - (phase & mask) * lo_ulp * sin(hi)) / sqrt(n))
    a = math.ldexp(a_fix, -_FIX_BITS)
    x = math.ldexp(a_fix - ((2 * n_top + 1) << (_FIX_BITS - 1)), -_FIX_BITS)
    terms.append(0.5 * _rs_remainder(a, n_top, x, _RS_COEFFS))
    return 2.0 * math.fsum(terms), n_top + len(_RS_COEFFS)


def _hardy_rs_bound(t: float, z: float) -> float:
    """Error bound of `_hardy_z_rs` at t >= 100, where its value is z.

    With exact phases the rounding no longer grows with t.  What rounds is
    the exact fsum's one rounding to Z, an ulp of |Z| (at most eps |Z|,
    taken ten times), and each term's cos and sin, an eps or so on weights
    n^(-1/2) of random sign: sqrt(ln N) eps over the N terms, taken 24
    times.  Against mpmath at the fixture heights and t = 1e9, 1e10, 1e11
    the worst error / bound is 0.080, at t = 311 (6.0e-16 at |Z| = 0.036).
    """
    x = t / (2.0 * math.pi)
    return (_RS_FIX_TRUNC * x ** -6.75
            + _EPS * (10.0 * abs(z) + 24.0 * math.sqrt(0.5 * math.log(x))))


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Midpoint of a sign-change bracket of f, no wider than _ZERO_TOL.

    Regula falsi with the Illinois rule: when the same end survives twice,
    its function value is halved, so both ends close in.  Each new point is
    kept a quarter tolerance inside the bracket, which closes it as soon as
    the secant lands within that distance of an end.
    """
    side = 0
    while hi - lo > _ZERO_TOL:
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + 0.25 * _ZERO_TOL), hi - 0.25 * _ZERO_TOL)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, fx
            if side == 1:
                f_lo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


def _gram_point(n: int, t: float) -> float:
    """The Gram point g_n >= g_{-1}, theta(g_n) = n pi, by Newton's method on
    `riemann_siegel_theta` from t >= g_{-1}, with theta' taken as
    log(t / 2 pi) / 2 - 1 / (48 t^2); it stops at the first step below
    1e-10 t, which leaves g_n good to theta's rounding.
    """
    target = n * math.pi
    while True:
        dt = (target - riemann_siegel_theta(t)) / (
            0.5 * math.log(t / (2.0 * math.pi)) - 1.0 / (48.0 * t * t))
        t += dt
        if abs(dt) < 1e-10 * t:
            return t


# g_{-1} = 9.6669..., the lowest Gram point on theta's rising branch.
_GRAM_T_MIN = _gram_point(-1, 10.0)


def _grid_signs(sign, t_min: float, t_max: float, step: float):
    """(k, s) in order of k over the grid points min(t_min + k step, t_max):
    point k and every point before the next k yielded have the sign of s,
    as `sign` would read it.

    Gram blocks cover the grid from g_{-1} to `_ROSSER_T_MAX`: the Gram
    points g_n from the nearest good one (sign (-1)^n Z(g_n) > 0) at or
    below the window to the nearest good one at or above it.  A block of one
    interval, between consecutive good points, holds one zero, so its grid
    points bisect to the one cell where the sign changes.  Every grid point
    of a longer block, and every one outside the blocks, is read.
    """
    def point(k):
        return min(t_min + k * step, t_max)

    def cut(t):
        """The number of grid points at or below t."""
        if t >= t_max:
            return last + 1
        k = max(0, math.floor((t - t_min) / step))
        while k > 0 and t_min + (k - 1) * step > t:
            k -= 1
        while t_min + k * step <= t:
            k += 1
        return k

    def good(n, g):
        return sign(g) * (-1.0) ** n > 0.0

    def read(k0, k1):
        for k in range(k0, k1 + 1):
            yield k, sign(point(k))

    def one_zero(k0, k1, s):
        lo, hi = k0 - 1, k1 + 1     # the interval's ends, signs s and -s
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sign(point(mid)) * s > 0.0:
                lo = mid
            else:
                hi = mid
        if lo >= k0:
            yield k0, s
        if hi <= k1:
            yield hi, -s

    # the last grid point: the first k with t_min + k step >= t_max
    last = cut(math.nextafter(t_max, -math.inf))
    low, high = max(t_min, _GRAM_T_MIN), min(t_max, _ROSSER_T_MAX)
    if not low < high:
        yield from read(0, last)
        return
    k = cut(_GRAM_T_MIN) if t_min < _GRAM_T_MIN else 0
    yield from read(0, k - 1)
    n = max(-1, math.floor(riemann_siegel_theta(low) / math.pi))
    g = _gram_point(n, low)
    while n > -1 and (g > low or not good(n, g)):
        n -= 1
        g = _gram_point(n, g)
    while g < high:
        m = n + 1
        g_m = _gram_point(m, g)
        while not good(m, g_m):
            m += 1
            g_m = _gram_point(m, g_m)
        k_end = cut(g_m)
        if m == n + 1:
            yield from one_zero(k, k_end - 1, (-1.0) ** n)
        else:
            yield from read(k, k_end - 1)
        n, g, k = m, g_m, k_end
    yield from read(k, last)


def find_zeros(t_min: float, t_max: float, step: float,
               q: QuadratureSpec = DEFAULT_QUAD) -> list[ZeroBracket]:
    """Zeros of Hardy's Z on [t_min, t_max]: sign scan on a grid, then refinement.

    The grid is t_min + k step, k = 0, 1, ..., its last point clamped to
    t_max, and a zero is bracketed by the grid cell where Z's sign changes.
    Gram points find those cells (`_grid_signs`).  From g_{-1} = 9.667 to
    H_R = `_ROSSER_T_MAX` = 6.8e6 every Gram block of k intervals holds k
    zeros: Rosser's rule (Rosser, Yohe and Schoenfeld 1969), whose first
    exception is the block at Gram index 13,999,525, t = 6.82e6 (Brent,
    Math. Comp. 1979).  In a block of one interval (Gram's law) the grid
    cells bisect to the one that changes sign; every cell of a longer
    block, and of the window outside [g_{-1}, H_R], is read.  The cells
    are those where a reading of every grid point sees the sign change,
    so the brackets are too.  A zero-scan pass of the benchmark takes
    2,862 main sums at seed 1 and 2,645 at seed 20261017, against 7,415
    and 7,391 reading every grid point, with the same `hardy_z` calls.
    Grid points, Gram points and refinement steps take one rule: at
    t >= 2 pi twice the Riemann-Siegel main sum (2-5 us to t = 5000) where
    the remainder cannot flip its sign, else that plus the remainder
    through C_4 (2.5 us more) where the sum Z_RS clears its bound
    `_rs_bound`; anywhere else `hardy_z`.  A sign change is re-checked with
    `hardy_z` at both ends, whose values become z_lo and z_hi, and refined
    by the Illinois method on the rule's values to a bracket no wider than
    1e-8, whose midpoint is refined_t.  Every sign taken is Z's, so the
    brackets are those of a scan that evaluates `hardy_z` at every grid
    point.  Above t = 1000 a zero costs about three `hardy_z` calls
    (Riemann-Siegel in fixed point): the two bracket ends and the step
    inside the bound.

    Raises DomainError when step does not move t at t_max, and
    NonConvergence when the Riemann-Siegel sum at t_max would need more
    than q.max_terms terms.
    """
    if not t_min < t_max:
        raise DomainError(f"needs t_min < t_max, got [{t_min!r}, {t_max!r}]")
    if not (0.0 < step <= 1.0):
        raise DomainError(f"step must lie in (0, 1], got {step!r}")
    if not step > math.ulp(t_max):
        # t_min + k step would repeat points near t_max
        raise DomainError(f"step {step!r} does not move t at t_max = {t_max!r}")
    if t_max >= _RS_T_MIN:
        _term_budget(_rs_length(t_max), q, "Riemann-Siegel")

    def grid_sign(t: float) -> float:
        """A value of Z(t)'s sign: twice the main sum, Z_RS or `hardy_z`."""
        if t >= _RS_T_MIN:
            a, n_top, main = _rs_main(t)
            z, bound = 2.0 * main, _rs_bound(t)
            if abs(z) <= _poly(_RS_REACH, 1.0 / a) / math.sqrt(a) + bound:
                z += _rs_remainder(a, n_top, a - n_top - 0.5, _RS_COEFFS_GRID)
            if abs(z) > bound:
                return z
        return hardy_z(t, q).value.real

    t_min, t_max = float(t_min), float(t_max)
    brackets: list[ZeroBracket] = []
    s_lo = 0.0
    for k, s_hi in _grid_signs(grid_sign, t_min, t_max, step):
        if s_lo * s_hi < 0.0:
            t_lo = min(t_min + (k - 1) * step, t_max)
            t_hi = min(t_min + k * step, t_max)
            z_lo = hardy_z(t_lo, q).value.real
            z_hi = hardy_z(t_hi, q).value.real
            if z_lo * z_hi < 0.0:
                root = _illinois(grid_sign, t_lo, t_hi, z_lo, z_hi)
                brackets.append(ZeroBracket(t_lo=t_lo, t_hi=t_hi, z_lo=z_lo,
                                            z_hi=z_hi, refined_t=root))
        s_lo = s_hi
    return brackets
